import json

import numpy as np
import pytest

from wedflow import IdentityReport
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


def test_missing_key_reports_json_pointer():
    config = cfg()
    del config["x_bar"]
    with pytest.raises(ConfigError, match="/x_bar"):
        Experiment(config)


def test_eps_list_must_decrease():
    with pytest.raises(ConfigError, match="/eps_list"):
        Experiment(cfg(eps_list=[0.05, 0.1]))


def test_suite_failure_gives_exit_2(tmp_path, monkeypatch):
    failing = IdentityReport(name="spectral", residuals=np.array([1.0]),
                             max_residual=1.0, tolerance=0.0)
    monkeypatch.setitem(_SUITE_FN, "spectral", lambda exp, outdir: failing)
    assert run(cfg(suites=["spectral"]), tmp_path / "out", quiet=True) == 2


def test_outputs_deterministic_across_runs(tmp_path):
    config = cfg(suites=["spectral", "fundamental"], N=800)
    for sub in ("a", "b"):
        assert run(config, tmp_path / sub, quiet=True, tasks=("solve", "value")) == 0
    skip = {"manifest.json", "convergence.csv"}  # wall-clock content
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        if name in skip:
            continue
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


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
    assert run(cfg(), tmp_path / "out", quiet=True, tasks=("solve",)) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x0,speed,phi,V,resid_fund,resid_inner"
    assert len(lines) == 1 + BASE["N"] + 1
    last = lines[-1].split(",")
    assert last[2] == ""  # no cell speed on the final node row


def test_mm_csv_schema(tmp_path):
    assert run(cfg(mm_tau=0.01, mm_steps=10), tmp_path / "out", quiet=True,
               tasks=("mm",)) == 0
    lines = (tmp_path / "out" / "mm.csv").read_text().splitlines()
    assert lines[0] == "k,t,x0,phi,movement"
    assert len(lines) == 12


def test_value_csv_schema(tmp_path):
    assert run(cfg(eps_list=[0.1, 0.05]), tmp_path / "out", quiet=True,
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


def test_task_commands_run_no_suites(tmp_path):
    p = write_cfg(tmp_path, cfg(suites=["spectral"]))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out), "--quiet"]) == 0
    assert (out / "report.json").exists()
    assert not list(out.glob("report_*.json"))
    assert json.loads((out / "manifest.json").read_text())["summary"] == {}


@pytest.mark.parametrize("config, needle", [
    (cfg(N="abc"), "/N"),
    (cfg(cache_capacity="x"), "/cache_capacity"),
    (cfg(max_iter=True), "/max_iter"),
    (cfg(t_obs=[1]), "/t_obs"),
    (cfg(epsilon="x"), "/epsilon"),
    (cfg(eps_list=[0.1, "a"]), "/eps_list/1"),
    (cfg(grid_mode="nope"), "/grid_mode"),
    ([1], "JSON object"),
    (cfg(N=0), "config /N:"),
    (cfg(T=-1.0), "config /T:"),
    (cfg(T=0.0), "config /T:"),
    (cfg(epsilon=0.0), "config /epsilon:"),
    (cfg(eps_list=[0.1, 0.05, -0.01]), "config /eps_list/2:"),
    (cfg(space={"kind": "pnorm", "dim": 1, "p": 3.0}), "config /space: trajectory solvers"),
    pytest.param(cfg(energy={"kind": "double_well"}, x_bar=[1e200]),
                 "config /x_bar: x_bar must have",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
    (cfg(space={"kind": "quantile1d", "m": 3}, x_bar=[-1.0, 0.0, 1.0],
         energy={"kind": "quantile_entropy_potential", "params": {"v2": 0.0}}),
     "config /energy: energy provides no coercivity"),
    (cfg(energy={"kind": "quadratic", "params": {"A": [[1.0, 0.0], [0.0, 1.0]]}}),
     "config /energy: dimension mismatch"),
    (cfg(energy={"kind": "quadratic", "params": {"A": [[-1.0]]}}), "config /epsilon: well-posed"),
], ids=["N", "cache_capacity", "max_iter", "t_obs", "epsilon", "eps_list", "grid_mode",
        "not_an_object", "N_zero", "T_negative", "T_zero", "epsilon_zero", "eps_list_negative",
        "pnorm_space", "x_bar_infinite_energy", "energy_no_coercivity", "energy_of_other_dim",
        "epsilon_too_large"])
def test_bad_config_values_are_config_errors(tmp_path, config, needle):
    out = tmp_path / "out"
    code = main(["check", "--config", str(write_cfg(tmp_path, config)), "--out", str(out),
                 "--suite", "spectral", "--quiet"])
    assert code == 1
    assert needle in json.loads((out / "manifest.json").read_text())["error"]
