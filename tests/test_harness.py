import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crosslearn
from crosslearn import harness
from crosslearn.envs import EnvError, TabularEnv
from crosslearn.harness import (
    ALGO_STREAMS,
    CSV_HEADER,
    ConfigError,
    bootstrap_ci,
    build_algo,
    checkpoint_schedule,
    fit_scaling,
    load_results_csv,
    main,
    run_experiment,
    run_single,
    scaling_report,
    validate_config,
    worker_cap,
    write_csv,
)
from crosslearn.simplex import RngStream

SMALL_ENV = {"kind": "tabular_synthetic", "C": 4, "K": 3}


def small_config(**kw):
    config = {
        "env": dict(SMALL_ENV),
        "algos": ["crosslearn", "exp3_per_context"],
        "T_grid": [64, 128],
        "seeds": [0, 1],
        "overrides": "calibrated",
    }
    config.update(kw)
    return config


def test_checkpoint_schedule():
    assert checkpoint_schedule(100) == [1, 2, 4, 8, 16, 32, 64, 100]
    assert checkpoint_schedule(64) == [1, 2, 4, 8, 16, 32, 64]
    assert checkpoint_schedule(1) == [1]


def test_run_experiment_cardinality():
    results = run_experiment(small_config())
    assert len(results) == 2 * 2 * 2
    ids = {r.run_id for r in results}
    assert len(ids) == 8 and "crosslearn-T64-s0" in ids
    for r in results:
        assert [cp for cp, _ in r.checkpoints] == checkpoint_schedule(r.horizon)


def test_csv_byte_identical_on_rerun(tmp_path):
    config = small_config()
    data1 = write_csv(run_experiment(config), tmp_path / "a.csv")
    data2 = write_csv(run_experiment(config), tmp_path / "b.csv")
    assert data1 == data2
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_parallel_matches_serial(tmp_path):
    config = small_config(seeds=[0, 1, 2])
    serial = write_csv(run_experiment(config), tmp_path / "serial.csv")
    par = write_csv(run_experiment(small_config(seeds=[0, 1, 2], workers=4)),
                    tmp_path / "par.csv")
    assert serial == par


@pytest.mark.parametrize("field, match", [
    ("timing", "unknown config field 'timing'; use `crosslearn run --timing`"),
    ("overide", "unknown config field 'overide'"),
], ids=["timing", "misspelt_overrides"])
def test_unknown_config_field_fails_before_any_run(tmp_path, capsys, monkeypatch,
                                                   field, match):
    # a misspelt "overrides" must not run tuned parameters without a word
    monkeypatch.setattr(harness, "build_env", None)  # any run would crash
    config = small_config(**{field: "calibrated" if field == "overide" else True})
    with pytest.raises(ConfigError, match=re.escape(match)):
        run_experiment(config)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(config, output=str(tmp_path / "r.csv"))))
    assert main(["run", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {match}\n"
    assert not (tmp_path / "r.csv").exists()


def test_wall_ms_zero_unless_timed(tmp_path):
    results = run_experiment(small_config(algos=["crosslearn"], seeds=[0]))
    assert all(r.wall_ms > 0 for r in results)
    plain = write_csv(results, tmp_path / "plain.csv")
    for line in plain.splitlines()[1:]:
        assert line.rsplit(",", 1)[1] == "0"
    timed = write_csv(results, tmp_path / "timed.csv", timing=True)
    assert any(line.rsplit(",", 1)[1] != "0" for line in timed.splitlines()[1:])


def test_invalid_override_rejected():
    config = small_config(overrides={"eta": 5.0})
    with pytest.raises(ConfigError, match="eta"):
        validate_config(config)
    # unknown override field named in the error
    with pytest.raises(ConfigError, match="knob"):
        validate_config(small_config(overrides={"knob": 1}))
    # unsafe flag lets a hot eta through
    validate_config(small_config(overrides={"eta": 5.0, "unsafe": True}))


def test_validate_config_errors():
    with pytest.raises(ConfigError, match="env"):
        validate_config({"algos": ["crosslearn"], "T_grid": [8], "seeds": [0]})
    with pytest.raises(ConfigError, match="algorithm"):
        validate_config(small_config(algos=["sgd"]))
    with pytest.raises(ConfigError, match="ascending"):
        validate_config(small_config(T_grid=[128, 64]))
    with pytest.raises(ConfigError, match="seeds"):
        validate_config(small_config(seeds=[]))
    validate_config(small_config(workers=1))
    validate_config(small_config(workers=np.int64(3)))


@pytest.mark.parametrize("workers", ["two", 2.5, 0, -1, True])
def test_cli_reports_invalid_workers(tmp_path, capsys, workers):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config(workers=workers,
                                                output=str(tmp_path / "r.csv"))))
    assert main(["run", str(cfg_path)]) == 1
    assert "error: workers must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_overrides_only_reach_crosslearn():
    base = small_config(algos=["exp3_per_context"], overrides=None)
    hot = small_config(algos=["exp3_per_context"],
                       overrides={"eta": 5.0, "unsafe": True})
    r1 = run_experiment(base)
    r2 = run_experiment(hot)
    for a, b in zip(r1, r2):
        assert a.checkpoints == b.checkpoints


def test_planted_sqrt_slope():
    points = [(T, 3.7 * math.sqrt(T)) for T in (256, 512, 1024, 2048)
              for _ in range(10)]
    fit = fit_scaling(points)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_scaling_requirements():
    with pytest.raises(ConfigError, match="horizons"):
        fit_scaling([(64, 1.0)] * 10 + [(128, 1.0)] * 10 + [(256, 1.0)] * 10)
    with pytest.raises(ConfigError, match="seeds"):
        fit_scaling([(T, 1.0) for T in (64, 128, 256, 512) for _ in range(9)])


def test_bootstrap_ci_deterministic():
    vals = np.arange(30, dtype=float)
    a = bootstrap_ci(vals)
    b = bootstrap_ci(vals)
    assert a == b
    assert a[0] < vals.mean() < a[1]


def test_csv_roundtrip_and_header(tmp_path):
    results = run_experiment(small_config(algos=["crosslearn"], seeds=[0]))
    path = tmp_path / "out.csv"
    write_csv(results, path)
    rows = load_results_csv(path)
    assert len(rows) == sum(len(r.checkpoints) for r in results)
    assert set(rows[0]) == set(CSV_HEADER)
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    with pytest.raises(ConfigError, match="header"):
        load_results_csv(bad)


def test_scaling_report_from_rows(tmp_path):
    config = small_config(algos=["crosslearn"],
                          T_grid=[64, 128, 256, 512],
                          seeds=list(range(10)), workers=8)
    path = tmp_path / "r.csv"
    write_csv(run_experiment(config), path)
    report = scaling_report(load_results_csv(path))
    fit = report["crosslearn"]["fit"]
    assert fit.horizons == [64, 128, 256, 512]
    assert len(report["crosslearn"]["ci"]) == 4
    lo, hi = report["crosslearn"]["ci"][512]
    assert lo <= fit.means[-1] <= hi


def test_worker_cap_env(monkeypatch):
    monkeypatch.setenv("CROSSLEARN_THREADS", "3")
    assert worker_cap() == 3
    monkeypatch.setenv("CROSSLEARN_THREADS", "junk")
    with pytest.raises(ConfigError):
        worker_cap()
    monkeypatch.delenv("CROSSLEARN_THREADS")
    assert worker_cap() >= 1
    if hasattr(os, "sched_getaffinity"):
        assert worker_cap() == len(os.sched_getaffinity(0))


def test_cli_run_and_scaling(tmp_path, capsys):
    config = small_config(algos=["crosslearn"],
                          T_grid=[64, 128, 256, 512],
                          seeds=list(range(10)),
                          output=str(tmp_path / "cli.csv"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", str(cfg_path), "--workers", "8"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and (tmp_path / "cli.csv").exists()
    assert main(["scaling", str(tmp_path / "cli.csv")]) == 0
    out = capsys.readouterr().out
    assert "crosslearn: slope" in out
    assert main(["run", str(tmp_path / "missing.json")]) == 1


def test_cli_scaling_names_an_algo_without_rows(tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_text(",".join(CSV_HEADER) + "\n"
                    + "".join(f"{algo}-T64-s0,0,{algo},tabular,64,64,1.5,0,0\n"
                              for algo in ("exp3_per_context", "crosslearn")))
    assert main(["scaling", str(path), "--algo", "nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no rows for algo 'nope' "
                            "(algos present: crosslearn, exp3_per_context)\n")


def test_cli_scaling_reports_a_csv_without_rows(tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_text(",".join(CSV_HEADER) + "\n")
    assert main(["scaling", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no result rows in {path}\n"


@pytest.mark.parametrize("output, match", [
    ("missing/r.csv", "output directory"), (".", "is a directory"), (None, "nonempty"),
], ids=["missing_directory", "directory", "empty"])
def test_cli_checks_the_output_path_before_any_run(tmp_path, capsys, monkeypatch,
                                                   output, match):
    monkeypatch.setattr(harness, "run_experiment", None)  # any run would crash
    cfg_path = tmp_path / "config.json"
    out = "" if output is None else str(tmp_path / output)
    cfg_path.write_text(json.dumps(small_config(output=out)))
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err


def test_cli_reports_a_failed_write(tmp_path, capsys, monkeypatch):
    def refuse(results, path, timing=False):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(harness, "write_csv", refuse)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config(output=str(tmp_path / "r.csv"))))
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "Permission denied" in err


def test_cold_import_leaves_out_the_pool_and_the_parser():
    # the process pool and argparse are imported by the first run or CLI
    # call that needs them; test_parallel_matches_serial covers the pool
    env = dict(os.environ, PYTHONPATH=str(Path(crosslearn.__file__).parents[1]))
    probe = ("import sys, crosslearn; print(sorted(m for m in ("
             "'concurrent.futures.process', 'multiprocessing', 'argparse') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    cli = subprocess.run([sys.executable, "-m", "crosslearn", "--help"], env=env,
                         capture_output=True, text=True)
    assert cli.returncode == 0 and "usage: crosslearn" in cli.stdout


@pytest.mark.parametrize("text, match", [
    ("", "empty results file"),
    (",".join(CSV_HEADER) + "\n0,0,crosslearn,tabular,64\n", "line 2: expected 9 fields, got 5"),
    (",".join(CSV_HEADER) + "\n0,0,crosslearn,tabular,64,64,lots,3,0\n",
     "malformed results row"),
], ids=["empty", "short_row", "non_numeric_regret"])
def test_cli_scaling_reports_malformed_csv(tmp_path, capsys, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main(["scaling", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err


def test_run_single_auction_and_sleeping():
    # non-tabular env kinds run end to end through the same entry point
    res = run_single({"kind": "auction"}, "crosslearn", 256, 0,
                     overrides="calibrated")
    assert res.env_name == "auction" and res.checkpoints[-1][0] == 256
    res = run_single({"kind": "sleeping", "K": 3}, "crosslearn", 128, 0,
                     overrides="calibrated")
    assert res.env_name == "sleeping"
    res = run_single({"kind": "sleeping", "K": 3}, "known_nu", 128, 0)
    assert res.checkpoints[-1][0] == 128


ROOT = Path(__file__).resolve().parents[1]


def test_synthetic_quick_reproduces_golden_csv(tmp_path):
    config = json.loads((ROOT / "configs" / "synthetic_quick.json").read_text())
    config["output"] = str(tmp_path / "results.csv")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", str(cfg_path)]) == 0
    golden = (Path(__file__).parent / "data" / "synthetic_quick.csv").read_bytes()
    assert (tmp_path / "results.csv").read_bytes() == golden


def test_every_algo_runs_on_matrix_active_sets():
    gen = np.random.default_rng(0)
    tensor = gen.random((96, 3, 2))
    mask0 = np.array([True, False, True])
    mask1 = np.array([False, True, True])
    env = TabularEnv.from_tensor(tensor, np.ones(2) / 2, RngStream(0, 0),
                                 active=np.array([mask0, mask1]))
    assert env.active.tolist() == [mask0.tolist(), mask1.tolist()]
    for name in ALGO_STREAMS:
        algo = build_algo(name, env, 0, "calibrated")
        for t in range(96):
            context = env.context(t)
            arm = algo.step(context, lambda a: env.reveal(t, a))
            assert env.active[context, arm], (name, t)


def test_env_spec_active_rows_from_json():
    spec = {"kind": "tabular_synthetic", "C": 2, "K": 3,
            "active": [[True, False, True], [0, 1, 1]]}
    for name in ALGO_STREAMS:
        res = run_single(json.loads(json.dumps(spec)), name, 64, 1,
                         overrides="calibrated" if name == "crosslearn" else None)
        assert res.checkpoints[-1][0] == 64


@pytest.mark.parametrize("active, match", [
    ([[True, True, False], None], "context 1"),
    ([[True, True, False], [True, False]], "context 1"),
    ([[True, True, False], [False, False, False]], "context 1 is empty"),
    # JSON cannot write integer keys: a dict {context: row} is no form
    ({0: [True, True, True], 1: [True, True, True]}, "got a dict"),
    ([[True, True, True]], "1 contexts"),
    ([[True, True, True], [1, 2, 0]], "context 1"),
    (lambda c: None, "matrix"),
])
def test_malformed_active_sets_name_the_context(active, match):
    with pytest.raises(EnvError, match=match):
        TabularEnv.synthetic(2, 3, 16, RngStream(0, 0), active=active)


def test_package_exports_resolve_once():
    # a class deleted from a module must not stay named in __all__
    names = crosslearn.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(crosslearn, name), name
