import json
import random

import numpy as np
import pytest

from wedflow import IdentityReport, NonConvergenceError
from wedflow.cli import ConfigError, Experiment, _SUITE_FN, main, run

BASE = {
    "space": {"kind": "euclidean", "dim": 1},
    "energy": {"kind": "quadratic", "params": {"A": [[1.0]], "b": [0.0]}},
    "x_bar": [1.0],
    "epsilon": 0.1,
    "T": 2.0,
    "t_obs": 1.0,
    "N": 1000,
    "probe_seed": 20240,
}


def cfg(**kw):
    out = json.loads(json.dumps(BASE))
    out.update(kw)
    return out


def write_cfg(tmp_path, config, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(config))
    return p


def test_spectral_only_config_passes(tmp_path):
    code = run(cfg(suites=["spectral"]), tmp_path / "out", quiet=True)
    assert code == 0
    report = json.loads((tmp_path / "out" / "report_spectral.json").read_text())
    assert report["pass"] is True
    assert (tmp_path / "out" / report["residuals_file"]).exists()


@pytest.mark.parametrize("seed", [20240, 7])
def test_spectral_suite_is_the_profile_by_profile_loop(tmp_path, seed):
    # the suite checks its 1000 random profiles PROFILE_ROWS at a time in
    # stacked calls, and the witness in chunks; one call a profile, on the
    # same draws, and one call for the whole witness give the same residuals
    # and ratio
    from wedflow import poincare_witness, spectral_check
    from wedflow.cli import PROFILE_ROWS, spectral_profiles, suite_spectral

    rng = random.Random(seed)
    ref = []
    for eps in (0.1, 1.0):
        for _ in range(500 // PROFILE_ROWS):
            for t, w in zip(*spectral_profiles(rng, PROFILE_ROWS)):
                n = np.count_nonzero(np.diff(t))
                lhs, rhs, _ = spectral_check(t[:n + 1], w[:n + 1], eps)
                ref.append(max(0.0, rhs - lhs) / max(lhs, 1e-300))
    t = np.linspace(0.0, 200.0, 100_001)
    ratio = spectral_check(t, poincare_witness(50.0, 1.0, t), 1.0)[2]
    report = suite_spectral(Experiment(cfg(probe_seed=seed)), tmp_path)
    assert np.array_equal(report.residuals, ref + [max(0.0, 0.9 - ratio)])
    assert report.details == {"witness_ratio": ratio}


def test_spectral_profiles_draw_the_stated_distributions():
    from wedflow.cli import spectral_profiles

    t, w = spectral_profiles(random.Random(3), 2000)
    dt = np.diff(t, axis=1)
    n = np.count_nonzero(dt, axis=1)
    assert n.min() == 8 and n.max() == 63
    live = np.arange(63) < n[:, None]
    assert np.all(dt[live] >= 0.01) and np.all(dt[live] < 0.5)
    assert np.all(dt[~live] == 0.0) and np.all(w[:, 1:][~live] == 0.0) and np.all(w[:, 0] == 0.0)
    assert abs(np.mean(dt[live]) - 0.255) < 0.003
    normals = w[:, 1:][live]
    assert abs(np.mean(normals)) < 0.01 and abs(np.std(normals) - 1.0) < 0.01


def test_spectral_profiles_never_violate_for_seeds_1_to_200():
    from wedflow import spectral_check
    from wedflow.cli import PROFILE_ROWS, spectral_profiles

    # each seed's draws as the suite makes them, each eps's 500 rows in one call
    for seed in range(1, 201):
        rng = random.Random(seed)
        for eps in (0.1, 1.0):
            chunks = [spectral_profiles(rng, PROFILE_ROWS) for _ in range(500 // PROFILE_ROWS)]
            lhs, rhs, _ = spectral_check(*map(np.concatenate, zip(*chunks)), eps)
            assert np.all(np.maximum(0.0, rhs - lhs) / np.maximum(lhs, 1e-300) == 0.0), seed


def test_spectral_suite_traced_peak_stays_below_4_mib(tmp_path):
    # tracemalloc sees numpy's buffers; the whole-witness suite peaked at
    # 9.9 MiB, the chunked one at 2.7 MiB
    import tracemalloc

    from wedflow.cli import suite_spectral

    exp = Experiment(cfg())
    tracemalloc.start()
    try:
        suite_spectral(exp, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_check_never_imports_numpy_random(tmp_path):
    # the import alone costs 4.4-5.3 MiB of a check's peak memory
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wedflow

    argv = ["check", "--config", str(write_cfg(tmp_path, cfg())), "--out", str(tmp_path / "out"),
            "--suite", "spectral", "--quiet"]
    code = ("import sys; from wedflow.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(wedflow.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["0", "False"]


def test_quadratic_end_to_end(tmp_path):
    config = cfg(suites=["fundamental", "dpp", "hj", "convergence"],
                 eps_list=[0.1, 0.05], N=2000)
    code = run(config, tmp_path / "out", suites=None, quiet=True, tasks=("solve",))
    assert code == 0
    for name in ("fundamental", "dpp", "hj", "convergence"):
        payload = json.loads((tmp_path / "out" / f"report_{name}.json").read_text())
        assert payload["pass"] is True, name
    assert (tmp_path / "out" / "trajectory.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(manifest["summary"]) == {"fundamental", "dpp", "hj", "convergence"}
    assert all(manifest["summary"].values())


def test_smallness_violation_is_a_validation_error(tmp_path):
    config = cfg(energy={"kind": "quadratic", "params": {"A": [[-0.5]]}}, epsilon=1.0,
                 suites=["spectral"])
    assert run(config, tmp_path / "out", quiet=True) == 1


def test_unknown_suite_rejected(tmp_path):
    assert run(cfg(suites=["nonsense"]), tmp_path / "out", quiet=True) == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "nonsense" in manifest["error"]
    assert manifest["summary"] == {}


def test_error_inside_suite_leaves_manifest(tmp_path, monkeypatch):
    def broken(exp, outdir):
        raise ConfigError("/energy", "broken suite")

    monkeypatch.setitem(_SUITE_FN, "fundamental", broken)
    out = tmp_path / "out"
    assert run(cfg(suites=["spectral", "fundamental"]), out, quiet=True) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert "broken suite" in manifest["error"]
    assert manifest["summary"] == {"spectral": True}
    assert (out / "report_spectral.json").exists()


@pytest.mark.parametrize("best", [np.array([[1.0, -0.5], [0.1, 1e-17], [2.0 / 3.0, 7.0]]), None],
                         ids=["best", "no_best"])
def test_non_convergence_leaves_best_iterate_and_trace(tmp_path, monkeypatch, best):
    trace = [[1, 2.5, 1.0], [2, 2.25, 0.5]]

    def stalled(exp, outdir):
        raise NonConvergenceError("solve stalled", best=best, trace=trace)

    monkeypatch.setitem(_SUITE_FN, "fundamental", stalled)
    out = tmp_path / "out"
    assert run(cfg(suites=["spectral", "fundamental"]), out, quiet=True) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["error"], manifest["trace"]) == ("solve stalled", trace)
    assert manifest["summary"] == {"spectral": True}
    if best is None:
        assert not (out / "best.csv").exists()
    else:
        header, *rows = (out / "best.csv").read_text().splitlines()
        assert header == "x0,x1"
        assert [[float(v) for v in row.split(",")] for row in rows] == best.tolist()


def test_runs_that_converge_leave_no_trace(tmp_path):
    out = tmp_path / "out"
    assert run(cfg(suites=["fundamental"]), out, quiet=True) == 0
    assert json.loads((out / "manifest.json").read_text())["trace"] is None
    assert not (out / "best.csv").exists()


def test_missing_key_reports_json_pointer():
    config = cfg()
    del config["x_bar"]
    with pytest.raises(ConfigError, match="/x_bar"):
        Experiment(config)


def test_experiment_builds_its_problem_once():
    exp = Experiment(cfg())
    assert exp.problem() is exp.problem()
    assert (exp.problem().epsilon, exp.problem().T, exp.problem().N) == (0.1, 2.0, 1000)


def test_problem_errors_come_before_eps_list_and_suite_errors(tmp_path):
    # the problem is built, and checked, as the config is read
    config = cfg(N=0, eps_list=[0.05, 0.1], suites=["nonsense"])
    assert run(config, tmp_path / "out", quiet=True) == 1
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["error"].startswith(
        "config /N:")


@pytest.mark.parametrize("config, seed", [
    (cfg(probe_seed=7.0), 7), (cfg(probe_seed=None), 20240), (cfg(N=0, probe_seed=7), None),
], ids=["integral_float", "default", "config_error"])
def test_manifest_probe_seed_is_the_parsed_one(tmp_path, config, seed):
    run(config, tmp_path / "out", suites=(), quiet=True)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["probe_seed"] == seed and type(manifest["probe_seed"]) is type(seed)


def test_eps_list_must_decrease():
    with pytest.raises(ConfigError, match="/eps_list"):
        Experiment(cfg(eps_list=[0.05, 0.1]))


def test_suite_failure_gives_exit_2(tmp_path, monkeypatch):
    failing = IdentityReport(name="spectral", residuals=np.array([1.0]), tolerance=0.0)
    monkeypatch.setitem(_SUITE_FN, "spectral", lambda exp, outdir: failing)
    assert run(cfg(suites=["spectral"]), tmp_path / "out", quiet=True) == 2


ALL_SUITES = ["spectral", "inner", "dpp", "fundamental", "monotone", "yosida", "hj",
              "lambda", "convergence", "finsler"]


@pytest.mark.parametrize("config, tasks", [
    (cfg(suites=["spectral", "fundamental"], N=800), ("solve", "value")),
    # every suite and the sweep on a 1-D double well: exit 0 means all pass
    (cfg(energy={"kind": "double_well"}, x_bar=[0.28], epsilon=0.05,
         eps_list=[0.1, 0.05, 0.025, 0.0125], N=4000, suites=ALL_SUITES),
     ("solve", "sweep", "mm")),
], ids=["quadratic", "double-well-all-suites"])
def test_outputs_deterministic_across_runs(tmp_path, config, tasks):
    for sub in ("a", "b"):
        assert run(config, tmp_path / sub, quiet=True, tasks=tasks) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        if name == "manifest.json":  # wall-clock content
            continue
        a, b = ((tmp_path / sub / name).read_text() for sub in ("a", "b"))
        if name == "convergence.csv":  # every column but the wall-clock runtime_s
            header = a.splitlines()[0].split(",")
            assert header[-1] == "runtime_s"
            a, b = ([row.rsplit(",", 1)[0] for row in text.splitlines()] for text in (a, b))
        assert a == b, name


def test_manifest_references_existing_files(tmp_path):
    config = cfg(suites=["spectral"])
    assert run(config, tmp_path / "out", quiet=True, tasks=("solve", "value", "mm")) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "wedflow"
    for name in manifest["summary"]:
        payload = json.loads((out / f"report_{name}.json").read_text())
        assert payload["pass"] == manifest["summary"][name]
        assert (out / payload["residuals_file"]).exists()
    for required in ("trajectory.csv", "value.csv", "mm.csv"):
        assert (out / required).exists()


def test_trajectory_csv_schema(tmp_path):
    assert run(cfg(), tmp_path / "out", suites=(), quiet=True, tasks=("solve",)) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x0,speed,phi,V,resid_fund,resid_inner"
    assert len(lines) == 1 + BASE["N"] + 1
    last = lines[-1].split(",")
    assert last[2] == ""  # no cell speed on the final node row


def test_trajectory_csv_residual_columns(tmp_path):
    # resid_fund: each kept cell's rate residual on its own row, blank past
    # the five-eps cut (here t >= 1.5); resid_inner: the per-cell residuals
    # the inner suite grades, blank on the final node row
    from wedflow import check_fundamental_identity, check_inner_variation

    assert run(cfg(), tmp_path / "out", suites=(), quiet=True, tasks=("solve",)) == 0
    out = tmp_path / "out"
    rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()[1:]]
    sol = Experiment(cfg()).solution()
    fund, inner = check_fundamental_identity(sol), check_inner_variation(sol)
    rate = fund.residuals[:fund.residuals.size // 3].tolist()
    assert 0 < len(rate) < BASE["N"]
    assert [r[5] for r in rows] == [repr(x) for x in rate] + [""] * (len(rows) - len(rate))
    assert max(map(float, filter(None, (r[5] for r in rows)))) == fund.details["rate_max"]
    assert [r[6] for r in rows] == [repr(x) for x in inner.residuals[:-1].tolist()] + [""]
    report = json.loads((out / "report.json").read_text())
    assert report["residuals"]["inner_variation"] == inner.max_residual


def test_mm_csv_schema(tmp_path):
    # tau = eps^2 / 4 = 0.0025 over t_obs = 1: 400 steps, 401 rows
    assert run(cfg(), tmp_path / "out", suites=(), quiet=True, tasks=("mm",)) == 0
    lines = (tmp_path / "out" / "mm.csv").read_text().splitlines()
    assert lines[0] == "k,t,x0,phi,movement"
    assert len(lines) == 1 + 401


def test_value_csv_schema(tmp_path):
    assert run(cfg(eps_list=[0.1, 0.05]), tmp_path / "out", suites=(), quiet=True,
               tasks=("value",)) == 0
    lines = (tmp_path / "out" / "value.csv").read_text().splitlines()
    assert lines[0] == "x0,epsilon,V,G,phi"
    assert len(lines) == 3


def test_main_handles_missing_config(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1


def test_main_check_single_suite(tmp_path):
    p = write_cfg(tmp_path, cfg())
    code = main(["check", "--config", str(p), "--out", str(tmp_path / "out"),
                 "--suite", "spectral", "--quiet"])
    assert code == 0
    assert (tmp_path / "out" / "report_spectral.json").exists()


@pytest.mark.parametrize("argv", [
    ["check", "--out", "{out}"],  # no --config
    ["bogus", "--config", "{cfg}", "--out", "{out}"],
    ["check", "--config", "{cfg}", "--out", "{out}", "--suite", "spectral", "--jobs", "2"],
])
def test_main_usage_error_exits_1(tmp_path, argv, capsys):
    p = write_cfg(tmp_path, cfg())
    assert main([a.format(cfg=p, out=tmp_path / "out") for a in argv]) == 1
    assert not (tmp_path / "out").exists()


def test_main_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize("suites", [None, [], "fundamental"],
                         ids=["missing", "empty", "string"])
def test_check_and_run_resolve_the_suite_list_alike(tmp_path, monkeypatch, suites):
    # no list and an empty one select every suite, a string is a config error
    for name in ALL_SUITES:
        monkeypatch.setitem(_SUITE_FN, name, lambda exp, outdir, name=name: IdentityReport(
            name=name, residuals=np.zeros(1), tolerance=0.0))
    config = cfg() if suites is None else cfg(suites=suites)
    codes = [run(config, tmp_path / "run", quiet=True),
             main(["check", "--config", str(write_cfg(tmp_path, config)),
                   "--out", str(tmp_path / "check"), "--quiet"])]
    run_m, check_m = (json.loads((tmp_path / sub / "manifest.json").read_text())
                      for sub in ("run", "check"))
    assert codes[0] == codes[1]
    assert (run_m["summary"], run_m["error"]) == (check_m["summary"], check_m["error"])
    if isinstance(suites, str):
        assert codes[0] == 1 and run_m["error"] == "config /suites: expected list"
    else:
        assert codes[0] == 0 and sorted(run_m["summary"]) == sorted(ALL_SUITES)


def test_task_commands_run_no_suites(tmp_path):
    p = write_cfg(tmp_path, cfg(suites=["spectral"]))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out), "--quiet"]) == 0
    assert (out / "report.json").exists()
    assert not list(out.glob("report_*.json"))
    assert json.loads((out / "manifest.json").read_text())["summary"] == {}


@pytest.mark.parametrize("config, needle", [
    (cfg(N="abc"), "/N"),
    (cfg(max_iter=True), "/max_iter"),
    (cfg(t_obs=[1]), "/t_obs"),
    (cfg(epsilon="x"), "/epsilon"),
    (cfg(eps_list=[0.1, "a"]), "/eps_list/1"),
    (cfg(grid_mode="nope"), "/grid_mode"),
    ([1], "JSON object"),
    (cfg(N=0), "config /N:"),
    (cfg(T=-1.0), "config /T:"),
    (cfg(T=0.0), "config /T:"),
    (cfg(T=-1.0, t_obs=None), "config /T:"),
    (cfg(t_obs=-1.0), "config /t_obs: must be positive"),
    (cfg(t_obs=0.0), "config /t_obs: must be positive"),
    (cfg(epsilon=0.0), "config /epsilon:"),
    (cfg(eps_list=[0.1, 0.05, -0.01]), "config /eps_list/2:"),
    (cfg(space={"kind": "pnorm", "dim": 1, "p": 3.0}),
     "config /space/kind: unknown space kind 'pnorm'"),
    pytest.param(cfg(energy={"kind": "double_well"}, x_bar=[1e200]),
                 "config /x_bar: x_bar must have",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
    (cfg(space={"kind": "quantile1d", "m": 3}, x_bar=[-1.0, 0.0, 1.0],
         energy={"kind": "quantile_entropy_potential", "params": {"v2": 0.0}}),
     "config /energy: energy provides no coercivity"),
    (cfg(energy={"kind": "quadratic", "params": {"A": [[1.0, 0.0], [0.0, 1.0]]}}),
     "config /energy: dimension mismatch"),
    (cfg(energy={"kind": "quadratic", "params": {"A": [[-1.0]]}}), "config /epsilon: well-posed"),
    (cfg(epsilon=float("nan")), "config /epsilon: must be finite"),
    (cfg(eps_list=[0.1, float("nan")]), "config /eps_list/1: must be finite"),
    (cfg(T=float("inf")), "config /T: must be finite"),
    (cfg(T=10**400), "config /T: must be finite"),  # an int past the float range
    (cfg(energy={"kind": "quadratic", "params": {"A": [[float("nan")]]}}),
     "config /energy: energy parameters must be finite"),
    (cfg(energy={"kind": "quadratic", "params": {"A": [[1.0]]}, "lambda": float("inf")}),
     "config /energy: energy parameters must be finite"),
    (cfg(energy={"kind": "quadratic", "params": {"A": [[1.0]]},
                 "coercivity": {"A": 0.0, "B": float("nan")}}),
     "config /energy: coercivity constants must be finite"),
], ids=["N", "max_iter", "t_obs", "epsilon", "eps_list", "grid_mode",
        "not_an_object", "N_zero", "T_negative", "T_zero", "T_negative_no_t_obs",
        "t_obs_negative", "t_obs_zero",
        "epsilon_zero", "eps_list_negative",
        "pnorm_space", "x_bar_infinite_energy", "energy_no_coercivity", "energy_of_other_dim",
        "epsilon_too_large", "epsilon_nan", "eps_list_nan", "T_infinite", "T_huge_int",
        "energy_nan", "lambda_infinite", "coercivity_nan"])
def test_bad_config_values_are_config_errors(tmp_path, config, needle):
    out = tmp_path / "out"
    code = main(["check", "--config", str(write_cfg(tmp_path, config)), "--out", str(out),
                 "--suite", "spectral", "--quiet"])
    assert code == 1
    assert needle in json.loads((out / "manifest.json").read_text())["error"]


@pytest.mark.parametrize("key, value", [
    ("grad_tol", 1e-8), ("max_iter", 100), ("horizons", [0.1]), ("lambda_prime", -1.25),
    ("mm_tau", 0.01), ("mm_steps", 10), ("epsilom", 0.1), ("grid_mode", "exp_graded"),
], ids=["grad_tol", "max_iter", "horizons", "lambda_prime", "mm_tau", "mm_steps", "misspelled",
        "graded_grid"])
def test_keys_no_run_reads_are_config_errors(tmp_path, capsys, key, value):
    # every key a run reads is in cli.KEYS; any other key, and a graded
    # problem grid, stop the run before a suite
    out = tmp_path / "out"
    argv = ["check", "--config", str(write_cfg(tmp_path, cfg(**{key: value}))), "--out", str(out),
            "--quiet"]
    assert main(argv) == 1
    assert f"config /{key}: " in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"].startswith(f"config /{key}: ") and manifest["summary"] == {}
    assert not list(out.glob("report_*.json"))


QUAD_A = {"kind": "quadratic", "params": {"A": [[1.0]]}}


@pytest.mark.parametrize("overrides, pointer", [
    ({"space": {"kind": "euclidean"}}, "/space/dim"),
    ({"space": {"kind": "euclidean", "dim": 1.7}}, "/space/dim"),
    ({"space": {"kind": "euclidean", "dim": 1, "extra": 1}}, "/space/extra"),
    ({"space": {"kind": "quantile1d", "dim": 1}}, "/space/dim"),
    ({"space": {"kind": "quantile1d"}}, "/space/m"),
    ({"space": {"dim": 1}}, "/space/kind"),
    ({"space": {"kind": "sphere", "dim": 1}}, "/space/kind"),
    ({"energy": {"kind": "quadratic", "params": {"A": "x"}}}, "/energy/params/A"),
    ({"energy": {"kind": "quadratic", "params": {"A": [[1.0], [1.0, 2.0]]}}}, "/energy/params/A"),
    ({"energy": {"kind": "quadratic", "params": {"A": [1.0]}}}, "/energy/params/A"),
    # an int past the float range is inf, which the energy rejects
    ({"energy": {"kind": "quadratic", "params": {"A": [[-10**400]]}}}, "/energy"),
    ({"energy": {"kind": "quadratic", "params": {"b": [0.0]}}}, "/energy/params/A"),
    ({"energy": {"kind": "quadratic", "params": {"A": [[1.0]], "b": [True]}}}, "/energy/params/b"),
    ({"energy": {"kind": "quadratic", "params": {"A": [[1.0]], "bogus": 1}}},
     "/energy/params/bogus"),
    ({"energy": {"kind": "discrete_dirichlet", "params": {"p": [3.0]}}}, "/energy/params/p"),
    ({"energy": {"kind": "double_well", "params": {"v2": 1.0}}}, "/energy/params/v2"),
    ({"energy": {**QUAD_A, "extra": 1}}, "/energy/extra"),
    ({"energy": {**QUAD_A, "lambda": "1"}}, "/energy/lambda"),
    ({"energy": {**QUAD_A, "coercivity": {"A": 0.0}}}, "/energy/coercivity/B"),
    ({"energy": {**QUAD_A, "coercivity": {"A": 0.0, "B": [1.0]}}}, "/energy/coercivity/B"),
    ({"energy": {**QUAD_A, "coercivity": {"A": 0.0, "B": 0.0, "u_star": 0.0}}},
     "/energy/coercivity/u_star"),
    ({"energy": {**QUAD_A, "coercivity": {"A": 0.0, "B": 0.0, "bogus": 1}}},
     "/energy/coercivity/bogus"),
    # a u_star of another dimension than the space's is an error of the energy
    ({"energy": {**QUAD_A, "coercivity": {"A": 0.0, "B": 0.5, "u_star": [5.0, 6.0, 7.0]}}},
     "/energy"),
    # so is a u_star off the quantile cone, where B > 0 makes Q read it
    ({"space": {"kind": "quantile1d", "m": 3}, "x_bar": [-1.0, 0.0, 1.0],
      "energy": {"kind": "quantile_entropy_potential", "params": {"v2": 1.0, "v1": 0.0},
                 "coercivity": {"A": 0.0, "B": 0.5, "u_star": [3.0, 2.0, 1.0]}}},
     "/energy"),
    ({"energy": {"params": {"A": [[1.0]]}}}, "/energy/kind"),
    ({"energy": {"kind": "sextic"}}, "/energy/kind"),
], ids=["space_no_dim", "space_fractional_dim", "space_extra", "quantile_dim", "quantile_no_m",
        "space_no_kind", "space_unknown_kind", "params_A_string",
        "params_A_ragged", "params_A_vector", "params_A_huge_int", "params_no_A", "params_b_bool",
        "params_bogus", "params_p_list", "params_of_another_kind", "energy_extra", "lambda_string",
        "coercivity_no_B", "coercivity_B_list", "coercivity_u_star_number", "coercivity_bogus",
        "coercivity_u_star_other_dim", "coercivity_u_star_off_the_cone",
        "energy_no_kind", "energy_unknown_kind"])
def test_nested_config_errors_carry_their_pointer(tmp_path, capsys, overrides, pointer):
    # a malformed space or energy stops the run with its JSON pointer, on
    # stderr and in the manifest, before any suite
    out = tmp_path / "out"
    argv = ["check", "--config", str(write_cfg(tmp_path, cfg(**overrides))), "--out", str(out),
            "--quiet"]
    assert main(argv) == 1
    assert f"config {pointer}: " in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"].startswith(f"config {pointer}: ") and manifest["summary"] == {}
    assert not list(out.glob("report_*.json"))


def test_value_suites_keep_no_cache(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the CLI kept a value solve")

    monkeypatch.setattr("wedflow.value.ValueCache.put", refuse)
    out = tmp_path / "out"
    argv = ["check", "--config", str(write_cfg(tmp_path, cfg())), "--out", str(out),
            "--suite", "yosida", "--suite", "hj", "--quiet"]
    assert main(argv) == 0


def test_finsler_command_runs_the_finsler_suite_only(tmp_path):
    out = tmp_path / "out"
    argv = ["finsler", "--config", str(write_cfg(tmp_path, cfg())), "--out", str(out), "--quiet"]
    assert main(argv) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"manifest.json", "report_finsler.json", "residuals_finsler.csv"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"] == {"finsler": True}
    report = json.loads((out / "report_finsler.json").read_text())
    assert report["pass"] is True and report["details"]["plain"] == 1.5
