"""The three workloads: set-up, rounds of timed operations, output checks.

Each workload is one closed-loop client.  ``setup()`` builds round 0's inputs
(this is what ``setup_s`` times in fresh interpreters); ``run_round(k, tally,
clock)`` runs round k, checks every operation against the oracles and adds
the seconds the program spent in the round to ``clock``.  ``last`` holds the
round's finer timings, which ``layer_extras`` turns into per-layer metrics.
Rounds of one workload always hold the same operations, so the share of
failed operations does not depend on the seed or on how many rounds fit in
a run.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import fixtures
import oracles
import speed

CLI_TIMEOUT_S = 150.0


class Tally:
    """Operations attempted and failed; failures not known in advance make
    the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []

    def record(self, ok: bool, what: str, known_fault: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(what)

    @property
    def correct(self) -> bool:
        return not self.unexpected


def self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- check-1d ---------------------------------------------------------------------


class Check1D:
    """``wedflow check`` on the pinned 1-D double-well config, once a round.

    Untraced rounds run the CLI as its own process, as users do.  Traced
    rounds call ``wedflow.cli.main`` in this process, where the wrappers are.
    """

    name = "check-1d"

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.peak_rss_mib = 0.0
        self.last: dict = {}

    def _config(self, k: int) -> Path:
        path = self.workdir / f"config-{k}.json"
        path.write_text(json.dumps(fixtures.check_config(self.seed, k), indent=1))
        return path

    def setup(self) -> None:
        from wedflow.cli import Experiment

        cfg = json.loads(self._config(0).read_text())
        Experiment(cfg).problem()  # the CLI's own validation before any suite

    def run_round(self, k: int, tally: Tally, clock: speed.Clock) -> None:
        out = self.workdir / f"out-{k}"
        shutil.rmtree(out, ignore_errors=True)
        args = ["check", "--config", str(self._config(k)), "--out", str(out), "--quiet"]
        if self.in_process:
            from wedflow import cli

            code = clock.call(cli.main, args)
        else:
            code, rss_kib = clock.call(run_child, [sys.executable, "-m", "wedflow.cli", *args],
                                       CLI_TIMEOUT_S, self.workdir / f"cli-{k}.log")
            self.peak_rss_mib = max(self.peak_rss_mib, rss_kib / 1024.0)
        problems = check_reports(out, code)
        tally.record(not problems, f"check round {k}: {'; '.join(problems)}")
        manifest = out / "manifest.json"
        self.last = json.loads(manifest.read_text())["task_wall_times_s"] \
            if manifest.exists() else {}
        shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def layer_extras(lasts: list) -> dict:
        """Mean wall time of each suite, as the CLI's manifest records it."""
        return {f"cli.suite.{s}.s": statistics.fmean(last.get(s, 0.0) for last in lasts)
                for s in fixtures.SUITES}


def run_child(cmd: list, timeout: float, log: Path):
    """(exit code, peak RSS in KiB) of one child process.

    The child is reaped with a blocking wait4, which gives its own resource
    usage and returns at its exit without the polling delay of
    ``Popen.wait`` with a timeout; its stderr goes to ``log``.
    """
    with open(log, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.stderr.write(log.read_text(errors="replace")[-2000:])
    return code, usage.ru_maxrss


def check_reports(out: Path, code: int) -> list:
    """Problems with one check run's outputs; empty when all is well."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    reports = {}
    for suite in fixtures.SUITES:
        path = out / f"report_{suite}.json"
        if not path.exists():
            problems.append(f"report_{suite}.json missing")
            continue
        reports[suite] = payload = json.loads(path.read_text())
        if payload.get("pass") is not True:
            problems.append(f"suite {suite} did not pass")
        if not (out / str(payload.get("residuals_file"))).exists():
            problems.append(f"residuals of {suite} missing")
    manifest = out / "manifest.json"
    if not manifest.exists():
        problems.append("manifest.json missing")
    else:
        summary = json.loads(manifest.read_text()).get("summary", {})
        if sorted(summary) != sorted(fixtures.SUITES) or not all(summary.values()):
            problems.append(f"manifest summary {summary}")
    if "finsler" in reports:
        # closed forms: plain length |1.5 - 0|; constant weight 2 over [0, 2]
        det = reports["finsler"]["details"]
        if abs(det["plain"] - 1.5) > 1e-6 or abs(det["const"] - 4.0) > 1e-4:
            problems.append(f"finsler closed forms: plain {det['plain']}, const {det['const']}")
    if "monotone" in reports:
        det = reports["monotone"]["details"]
        V, gap = det["V"], det["phi_gap"]
        phis = [v + g for v, g in zip(V, gap)]
        if det["eps"] != sorted(det["eps"], reverse=True) or any(b < a for a, b in zip(V, V[1:])) \
                or min(gap) < 0.0 or max(phis) - min(phis) > 1e-12 * (1.0 + abs(phis[0])):
            problems.append("monotone: V not nonincreasing in eps or above phi")
    return problems


# -- solve-blocks -----------------------------------------------------------------


class SolveBlocks:
    """Single minimize_wed solves: three fixtures, two backends each."""

    name = "solve-blocks"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.last: dict = {}
        self._rounds: dict = {}

    @property
    def peak_rss_mib(self) -> float:
        return self_peak_rss_mib()

    def _problems(self, k: int) -> list:
        if k not in self._rounds:
            self._rounds = {k: [self._build(name, spec)
                                for name, spec in fixtures.solve_fixtures(self.seed, k)]}
        return self._rounds[k]

    @staticmethod
    def _build(name, spec):
        import wedflow as wf

        kind, dim = spec["space"]
        space = wf.SpaceSpec.quantile1d(dim) if kind == "quantile1d" else wf.SpaceSpec.euclidean(dim)
        ekind, params = spec["energy"]
        energy = wf.EnergySpec(ekind, dict(params))
        if "gaussian" in spec:
            x_bar = wf.gaussian_quantiles(space, *spec["gaussian"])
        else:
            x_bar = wf.Point(np.asarray(spec["x_bar"], float), space)
        problems = {b: wf.WedProblem(epsilon=spec["eps"], T=spec["T"], N=spec["N"], space=space,
                                     energy=energy, x_bar=x_bar, solver=b)
                    for b in fixtures.BACKENDS}
        return name, spec, problems

    def setup(self) -> None:
        self._problems(0)

    def run_round(self, k: int, tally: Tally, clock: speed.Clock) -> None:
        import wedflow as wf

        self.last = {}
        for name, spec, problems in self._problems(k):
            sols = {}
            for backend in fixtures.BACKENDS:
                before = clock.seconds
                try:
                    sols[backend] = clock.call(wf.minimize_wed, problems[backend])
                except wf.WedflowError as exc:
                    sols[backend] = exc
                self.last[f"{name}-{fixtures.BACKEND_TAGS[backend]}"] = clock.seconds - before
            x_bar = problems["direct"].x_bar.coords
            for backend, problems_found in check_solves(spec, x_bar, sols).items():
                tally.record(not problems_found,
                             f"{name} {backend} round {k}: {'; '.join(problems_found)}")

    @staticmethod
    def layer_extras(lasts: list) -> dict:
        """Median time of each fixture and backend's solve, in ms."""
        return {f"solve_ms.{key}": 1000.0 * statistics.median(last[key] for last in lasts)
                for key in lasts[0]}


# gap between the backends, in units of (dt / eps) x (distance travelled)
AGREEMENT = 1.0


def check_solves(spec: dict, x_bar: np.ndarray, sols: dict) -> dict:
    """Problems per backend of one fixture's direct and Euler-Lagrange solves."""
    found = {b: [] for b in fixtures.BACKENDS}
    for b, sol in sols.items():
        if isinstance(sol, Exception):
            found[b].append(f"raised {sol!r}")
        elif not np.array_equal(sol.trajectory.points[0], x_bar):
            found[b].append("does not start at x_bar")
    if any(found.values()):
        return found
    direct, el = sols["direct"], sols["euler_lagrange"]
    fn = oracles.energy(*spec["energy"])
    omega = oracles.metric_weights(spec["space"])
    nodes = direct.trajectory.grid.nodes
    eps = spec["eps"]
    U, U_el = direct.trajectory.points, el.trajectory.points
    phi_bar = float(fn(x_bar[None, :])[0][0])
    J, _, _ = oracles.wed_objective(fn, omega, nodes, eps, U)
    J_el, _, _ = oracles.wed_objective(fn, omega, nodes, eps, U_el)
    # direct: stationary to the solver's own acceptance bound, measured from
    # the residual of the constant start; its objective matches ours
    r0 = oracles.stationarity(fn, omega, nodes, eps, np.tile(x_bar, (U.shape[0], 1)))
    r = oracles.stationarity(fn, omega, nodes, eps, U)
    if not r <= 1e-4 * (1.0 + r0):
        found["direct"].append(f"stationarity residual {r:.3e} (start {r0:.3e})")
    if abs(J - direct.objective) > 1e-10 * (1.0 + abs(J)):
        found["direct"].append(f"objective {direct.objective!r} vs oracle {J!r}")
    if not J <= phi_bar + 1e-12 * (1.0 + abs(phi_bar)):
        found["direct"].append(f"objective {J!r} above phi(x_bar) {phi_bar!r}")
    # Euler-Lagrange: the reported objective is the discrete cost of its
    # trajectory, which the direct minimizer cannot exceed, and the two
    # first-order discretizations agree to O(dt/eps) of the distance travelled
    if abs(J_el - el.objective) > 1e-10 * (1.0 + abs(J_el)):
        found["euler_lagrange"].append(f"objective {el.objective!r} vs oracle {J_el!r}")
    if not J <= J_el + 1e-12 * (1.0 + abs(J_el)):
        found["euler_lagrange"].append(f"direct objective {J!r} above Euler-Lagrange {J_el!r}")
    travel = float(np.max(np.sqrt(np.sum(omega * (U - U[0]) ** 2, axis=1))))
    gap = float(np.max(np.sqrt(np.sum(omega * (U - U_el) ** 2, axis=1))))
    bound = AGREEMENT * float(np.max(np.diff(nodes))) / eps * max(travel, 1e-12)
    if not gap <= bound:
        found["euler_lagrange"].append(f"backend gap {gap:.3e} above {bound:.3e}")
    return found


# -- value-reuse ------------------------------------------------------------------


class ValueReuse:
    """A seeded stream of value_function queries through one ValueCache a round."""

    name = "value-reuse"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.pool = fixtures.value_pool(seed)
        self.last: dict = {}
        self._objects = None

    @property
    def peak_rss_mib(self) -> float:
        return self_peak_rss_mib()

    def setup(self) -> None:
        import wedflow as wf

        e1 = wf.SpaceSpec.euclidean(1)
        energies = {"quadratic": wf.quadratic([[1.0]]), "double_well": wf.double_well()}
        self._objects = {
            "pool": [(energies[kind], wf.Point(np.array([x]), e1), eps)
                     for kind, x, eps in self.pool],
            "mixed": [(energies["quadratic"], wf.Point(np.array([x]), e1), eps)
                      for x, eps in fixtures.MIXED],
        }

    def run_round(self, k: int, tally: Tally, clock: speed.Clock) -> None:
        """Fill a fresh cache with the pool's solves, then time the stream.

        The stream's pool queries are all cache hits, so the timed part is
        the read path; a change that stops reuse turns them into solves.
        The mixed-resolution pairs are checks of the cache key and are not
        timed: mending the key adds a solve to each, which is not a change
        in the read path.
        """
        import wedflow as wf

        pool, mixed = self._objects["pool"], self._objects["mixed"]
        cache = wf.ValueCache()
        opts = wf.ValueOptions(N=fixtures.POOL_N, cache=cache)
        coarse, fine = (wf.ValueOptions(N=n, cache=cache) for n in fixtures.MIXED_N)
        first = {}  # pool index -> (V, G, phi) of its solve this round
        for idx, (energy, x, eps) in enumerate(pool):
            s = wf.value_function(energy, x, eps, opts)
            first[idx] = (s.V, s.G, s.phi)
        bad = self._check_pool(first)

        def mixed_pair(energy, x, eps):
            wf.value_function(energy, x, eps, coarse)
            return wf.value_function(energy, x, eps, fine)

        stream = fixtures.value_stream(self.seed, k, len(pool))
        mixed_at = {len(stream) * (j + 1) // (len(mixed) + 1): j for j in range(len(mixed))}
        for i, idx in enumerate(stream):
            if i in mixed_at:
                energy, x, eps = mixed[mixed_at[i]]
                s = mixed_pair(energy, x, eps)
                xv = float(x.coords[0])
                exact = oracles.quadratic_value(xv, eps)
                ok = abs(s.V - exact) <= exact / fixtures.MIXED_N[1]
                tally.record(ok, f"mixed-resolution x={xv} eps={eps}: V={s.V!r}, "
                                 f"closed form {exact!r}", known_fault=True)
            energy, x, eps = pool[idx]
            s = clock.call(wf.value_function, energy, x, eps, opts)
            why = bad.get(idx) or ([] if first[idx] == (s.V, s.G, s.phi)
                                   else ["repeat answer differs"])
            kind, xv, eps = self.pool[idx]
            tally.record(not why, f"value {kind} x={xv} eps={eps} round {k}: {'; '.join(why)}")

    def _check_pool(self, answers: dict) -> dict:
        """Problems per pool index, from the oracles and the eps ladders."""
        bad = {}
        tol_rel = 1.0 / fixtures.POOL_N  # first-order scheme: error constant below 1
        for idx, (V, G, phi) in answers.items():
            kind, xv, eps = self.pool[idx]
            phi_ref = float(oracles.energy(kind, {})(np.array([[xv]]))[0][0])
            why = []
            if abs(phi - phi_ref) > 1e-12 * (1.0 + phi_ref):
                why.append(f"phi {phi!r} vs {phi_ref!r}")
            if not 0.0 <= V <= phi_ref + 1e-12 * (1.0 + phi_ref):
                why.append(f"V {V!r} outside [0, phi]")
            if abs(G - math.sqrt(2.0 * max(0.0, phi_ref - V) / eps)) > 1e-9 * (1.0 + G):
                why.append(f"G {G!r} inconsistent with V")
            if kind == "quadratic":
                exact, G_exact = oracles.quadratic_value(xv, eps), oracles.quadratic_G(xv, eps)
                if abs(V - exact) > tol_rel * exact:
                    why.append(f"V {V!r} vs closed form {exact!r}")
                # dG = dV / (eps G) carries the V tolerance over
                if abs(G - G_exact) > tol_rel * exact / (eps * G_exact):
                    why.append(f"G {G!r} vs closed form {G_exact!r}")
            if why:
                bad[idx] = why
        ladders = {}
        for idx, (kind, xv, eps) in enumerate(self.pool):
            ladders.setdefault((kind, xv), []).append((eps, idx))
        for rungs in ladders.values():
            rungs.sort(reverse=True)  # eps decreasing: V must not decrease
            Vs = [answers[idx][0] for _, idx in rungs]
            if any(b < a for a, b in zip(Vs, Vs[1:])):
                for _, idx in rungs:
                    bad.setdefault(idx, []).append(f"V not nonincreasing in eps: {Vs}")
        return bad

    @staticmethod
    def layer_extras(lasts: list) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Check1D, SolveBlocks, ValueReuse)}


def make(name: str, seed: int, workdir: Path, trace: bool = False):
    if name == Check1D.name:
        return Check1D(seed, workdir, in_process=trace)
    return WORKLOADS[name](seed, workdir)
