#!/usr/bin/env python3
"""Benchmark of wedflow, driven from outside through its public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads: check-1d, solve-blocks, value-reuse (see perfbench/README.md).
The package is imported from ``src/`` of the checkout this file sits in; it
is not installed.  Untraced runs (``--trace 0``) report the end-to-end
metrics, with times scaled to a reference machine speed (see ``speed.py``),
and install no wrappers.  Traced runs (``--trace 1``) run each round
untraced and then traced, both in this process, and report the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload untraced and prints one table instead.

Run outputs go to ``.bench_build/perfbench/`` in the checkout; the spans of
a traced run stay there as ``spans-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 7
WORKLOADS = ("check-1d", "solve-blocks", "value-reuse")

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict:
    import fixtures
    import tracing

    units = {}
    for name in tracing.metric_names():
        if name.endswith(".calls") or name in ("wed.newton_iterations", "value.cache.hits",
                                               "value.cache.misses"):
            units[name] = "count"
        elif name.endswith("_ratio") or name.endswith("_per_newton_step"):
            units[name] = "ratio"
        else:
            units[name] = "s"
    units["trace.overhead_s"] = "s"
    for fixture in fixtures.SOLVE_FIXTURES:
        for backend in fixtures.BACKEND_TAGS.values():
            units[f"solve_ms.{fixture}-{backend}"] = "ms"
    return units


def probe_setup(workload: str, seed: int, workdir: Path):
    """A clock that timed a fresh interpreter importing wedflow and building
    the workload's first inputs."""
    import speed
    import workloads

    clock = speed.Clock()
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    code, _ = clock.call(workloads.run_child, cmd, 60.0, workdir / "probe.log")
    if code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return clock


def run_rounds(w, tally, seconds: float) -> list:
    """A clock for each round: as many whole rounds as fit in ``seconds``,
    and at least one."""
    import speed

    clocks = []
    start = time.perf_counter()
    while True:
        clocks.append(speed.Clock())
        w.run_round(len(clocks) - 1, tally, clocks[-1])
        elapsed = time.perf_counter() - start
        if elapsed * (len(clocks) + 1) / len(clocks) > seconds:
            return clocks


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import speed
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        w = workloads.make(workload, seed, workdir, trace)
        tally = workloads.Tally()
        if not trace:
            # the work, its child processes and the sampler share one processor
            cpu = min(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpu})
            sampler = speed.Sampler(workdir / "speed.bin", cpu)
            try:
                probes = [probe_setup(workload, seed, workdir) for _ in range(SETUP_PROBES)]
                w.setup()
                rounds = run_rounds(w, tally, seconds)
            finally:
                sampler.stop()
            values = {"setup_s": statistics.median(sampler.scaled(probes)),
                      "round_s": statistics.median(sampler.scaled(rounds)),
                      "peak_rss_mib": w.peak_rss_mib}
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
        else:
            w.setup()
            values = traced(w, tally, seconds, OUT / f"spans-{workload}-seed{seed}.json")
            metrics = {n: {"value": values.get(n, 0.0), "unit": u}
                       for n, u in per_layer_units().items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def traced(w, tally, seconds: float, spans_path: Path) -> dict:
    """Each round untraced, then at once traced, as many pairs as fit.

    Running the two close together keeps the machine's speed, which drifts
    over tens of seconds, out of ``trace.overhead_s``.
    """
    import speed
    import tracing

    plain, timed, lasts = [], [], []
    start = time.perf_counter()
    while True:
        k = len(plain)
        clock = speed.Clock()
        w.run_round(k, tally, clock)
        plain.append(clock.seconds)
        lasts.append(w.last)
        clock = speed.Clock()
        tracing.install()
        try:
            w.run_round(k, tally, clock)
        finally:
            tracing.uninstall()
        timed.append(clock.seconds)
        elapsed = time.perf_counter() - start
        if elapsed * (k + 2) / (k + 1) > seconds:
            break
    rounds = len(plain)
    data = tracing.snapshot()
    tracing.write(spans_path, data)
    layer = tracing.layer_metrics(data, rounds)
    layer.update(w.layer_extras(lasts))
    layer["trace.overhead_s"] = (sum(timed) - sum(plain)) / rounds
    return layer


def summary(seed: int, seconds: int) -> int:
    """Every end-to-end metric of every workload, with operations counted."""
    print(f"{'workload':<14}{'metric':<16}{'value':>14}  {'unit':<6}"
          f"{'attempted':>10}{'failed':>8}  correct")
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{workload:<14}failed with exit code {proc.returncode}")
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        for name, m in res["metrics"].items():
            print(f"{workload:<14}{name:<16}{m['value']:>14.6g}  {m['unit']:<6}"
                  f"{res['attempted']:>10}{res['failed']:>8}  {str(res['correct']).lower()}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "wedflow" / "__init__.py").is_file():
        print(f"error: no wedflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # child interpreters (the CLI, set-up probes) import the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    # Load stays within one process and nproc threads: the solver's matrices
    # are at most 16 x 16, where BLAS threads buy nothing, and their spinning
    # workers make start-up time jitter.  Set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if args.probe_setup:
        import workloads

        workdir = OUT / f"probe-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            workloads.make(args.workload, args.seed, workdir).setup()
        finally:
            shutil.rmtree(workdir)
        return 0
    if args.workload == "all":
        return summary(args.seed, int(args.seconds))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
