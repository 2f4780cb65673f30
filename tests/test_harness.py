import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import crosslearn
from crosslearn import harness
from crosslearn.envs import EnvError, TabularEnv, spec_arms
from crosslearn.harness import (
    ALGO_STREAMS,
    CSV_HEADER,
    ConfigError,
    bootstrap_ci,
    build_algo,
    build_env,
    checkpoint_schedule,
    crosslearn_params,
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
from crosslearn.learner import calibrated_params
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


def _without_wall(result):
    return dataclasses.replace(result, wall_ms=0.0)


def test_known_nu_groups_match_single_runs(monkeypatch):
    # five known_nu seeds at two horizons, in one, two or three lockstep
    # groups (one per worker), give the results of one run per seed
    monkeypatch.setenv(harness.THREADS_VAR, "3")
    seeds = [3, 0, 4, 1, 2]
    config = {"env": dict(SMALL_ENV), "algos": ["known_nu"], "T_grid": [64, 100],
              "seeds": seeds}
    want = [run_single(SMALL_ENV, "known_nu", horizon, seed)
            for horizon in (64, 100) for seed in seeds]
    for workers in (1, 2, 3):
        got = run_experiment(dict(config, workers=workers))
        assert list(map(_without_wall, got)) == list(map(_without_wall, want)), workers


def test_known_nu_seeds_split_into_one_group_per_worker(monkeypatch):
    # the groups are contiguous, in seed order, their sizes differ by at
    # most one, and there are no more of them than workers or seeds
    seeds = [7, 3, 9, 1, 5]
    for parts, sizes in [(1, [5]), (2, [3, 2]), (3, [2, 2, 1]), (5, [1] * 5)]:
        groups = harness.split_seeds(seeds, parts)
        assert [len(g) for g in groups] == sizes
        assert sum(groups, []) == seeds
    tasks = []
    monkeypatch.setattr(harness, "map_tasks", lambda fn, ts, workers: tasks.extend(ts) or [])
    monkeypatch.setenv(harness.THREADS_VAR, "2")
    config = {"env": dict(SMALL_ENV), "algos": ["exp3_per_context", "known_nu"],
              "T_grid": [64, 128], "seeds": seeds}
    for workers, sizes in [(1, [5]), (3, [3, 2]), (8, [3, 2])]:
        tasks.clear()
        run_experiment(dict(config, workers=workers))
        assert [task[3] for task in tasks if task[1] == "exp3_per_context"] == [[s] for s in seeds] * 2
        known = [task[3] for task in tasks if task[1] == "known_nu"]
        assert [len(g) for g in known] == sizes * 2 and sum(known, []) == seeds * 2
    monkeypatch.setenv(harness.THREADS_VAR, "8")
    tasks.clear()
    run_experiment(dict(config, workers=8))
    assert [task[3] for task in tasks if task[1] == "known_nu"] == [[s] for s in seeds] * 2


def test_lockstep_batches_hold_the_float_budget():
    # a Bernoulli sleeping space of K = 9 arms has 511 subsets, so a batch
    # holds a few seeds; a seed whose table alone is above the budget
    # (K = 12: 4 095 subsets) is a batch of its own
    per_seed = {}
    for n_arms in (9, 12):
        env = build_env({"kind": "sleeping", "K": n_arms}, 64, RngStream(0, 0))
        per_seed[n_arms] = env.n_arms * len(env.known_nu_oracle())
    seeds = list(range(9))
    batches = harness.lockstep_batches(seeds, per_seed[9])
    fits = harness.LOCKSTEP_FLOATS // per_seed[9]
    assert 1 < fits < len(seeds)
    assert len(batches) == -(-len(seeds) // fits)
    assert sum(batches, []) == seeds
    assert all(len(b) * per_seed[9] <= harness.LOCKSTEP_FLOATS for b in batches)
    assert per_seed[12] > harness.LOCKSTEP_FLOATS
    assert harness.lockstep_batches(seeds, per_seed[12]) == [[s] for s in seeds]
    assert harness.lockstep_batches(seeds, 1) == [seeds]


def test_lockstep_runs_each_batch_in_its_own_learner(monkeypatch):
    spec = {"kind": "sleeping", "K": 9}
    seeds = list(range(5))
    want = [run_single(spec, "known_nu", 32, seed) for seed in seeds]
    made = []
    build = harness.build_algo
    monkeypatch.setattr(harness, "build_algo",
                        lambda name, envs, seeds, overrides: made.append(list(seeds))
                        or build(name, envs, seeds, overrides))
    got = harness.run_lockstep(spec, 32, seeds)
    env = build_env(spec, 32, RngStream(0, 0))
    assert made == harness.lockstep_batches(seeds, env.n_arms * len(env.known_nu_oracle()))
    assert len(made) > 1
    assert list(map(_without_wall, got)) == list(map(_without_wall, want))


def test_lockstep_batch_reads_its_space_and_masks_once():
    # the space and active sets are the spec's: a batch of R = 3 sleeping
    # K = 6 envs reads one oracle and one mask per subset, 63, not R of each
    seeds = [0, 1, 2]
    envs = [build_env({"kind": "sleeping", "K": 6}, 64, RngStream(s, harness.ENV_STREAM))
            for s in seeds]
    calls = {"mask": 0, "oracle": 0}
    for env in envs:
        def active_mask(context, read=env.active_mask):
            calls["mask"] += 1
            return read(context)

        def known_nu_oracle(read=env.known_nu_oracle):
            calls["oracle"] += 1
            return read()
        env.active_mask, env.known_nu_oracle = active_mask, known_nu_oracle
    algo = build_algo("known_nu", envs, seeds, None)
    assert len(algo.space) == 63
    assert calls == {"mask": 63, "oracle": 1}


def test_lockstep_wall_ms_shares_sum_to_the_loop_time(monkeypatch):
    clock = iter([10.0, 13.0])  # the loop starts at 10 s and ends at 13 s
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    results = harness.run_lockstep(SMALL_ENV, 16, [0, 1, 2])
    assert [r.wall_ms for r in results] == [1000.0] * 3
    assert sum(r.wall_ms for r in results) == 3000.0


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


@pytest.mark.parametrize("horizon", [2 ** e for e in range(12, 19)])
def test_auction_overrides_rebuild_the_calibrated_params(horizon):
    # criterion 08 and the reductions_grid benchmark state the bid-grid
    # calibrated parameters as an unsafe overrides dict: the harness must
    # rebuild them field for field, on the auction's own number of bids
    n_arms = math.ceil(horizon ** (1.0 / 3.0))
    assert spec_arms({"kind": "auction"}, horizon) == n_arms
    p = calibrated_params(n_arms, horizon, eta_scale=n_arms / 8.0)
    overrides = {"eta": p.eta, "gamma": p.gamma, "L": p.epoch_len, "unsafe": True}
    assert crosslearn_params(n_arms, horizon, overrides) == p


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
    # the process pool, argparse, numpy.random and scipy are imported by the
    # first run or CLI call that needs them; test_parallel_matches_serial
    # covers the pool
    env = dict(os.environ, PYTHONPATH=str(Path(crosslearn.__file__).parents[1]))
    probe = ("import sys, crosslearn; print(sorted(m for m in ("
             "'concurrent.futures.process', 'multiprocessing', 'argparse', "
             "'numpy.random', 'scipy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    cli = subprocess.run([sys.executable, "-m", "crosslearn", "--help"], env=env,
                         capture_output=True, text=True)
    assert cli.returncode == 0 and "usage: crosslearn" in cli.stdout


def test_pool_workers_inherit_numpy_random(tmp_path):
    # a parent that never imported numpy.random hands it to the workers it
    # forks, so no pooled task imports it again
    (tmp_path / "probe_task.py").write_text(
        "import sys\n\n\ndef loaded(name):\n    return name in sys.modules\n")
    path = os.pathsep.join([str(Path(crosslearn.__file__).parents[1]), str(tmp_path)])
    env = dict(os.environ, PYTHONPATH=path, CROSSLEARN_THREADS="2")
    probe = ("import sys, crosslearn, probe_task; "
             "print('numpy.random' in sys.modules, crosslearn.harness.map_tasks("
             "probe_task.loaded, ['numpy.random'] * 2, 2))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False [True, True]"


def test_pool_workers_inherit_scipy_special_on_beta_values(tmp_path):
    # run_experiment loads the beta CDF's module before the pool forks
    # (validation alone does not), so no pooled run imports it again
    (tmp_path / "probe_task.py").write_text(
        "import sys\n\n\ndef loaded(task):\n    return ['scipy.special' in sys.modules]\n")
    path = os.pathsep.join([str(Path(crosslearn.__file__).parents[1]), str(tmp_path)])
    env = dict(os.environ, PYTHONPATH=path, CROSSLEARN_THREADS="2")
    config = {"env": {"kind": "auction", "values": {"kind": "beta", "a": 2, "b": 5}},
              "algos": ["crosslearn"], "T_grid": [64], "seeds": [0, 1], "workers": 2}
    probe = ("import sys, crosslearn, probe_task; from crosslearn import harness; "
             "harness._run_task = probe_task.loaded; "
             f"print('scipy' in sys.modules, harness.run_experiment({config!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False [True, True]"


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


@pytest.mark.parametrize("command", ["run", "scaling"])
def test_cli_names_a_file_that_is_not_utf8_text(tmp_path, capsys, command):
    path = tmp_path / "binary.dat"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read ") and "utf-8" in captured.err


def test_scaling_refuses_a_repeated_run(tmp_path, capsys):
    # the golden synthetic_quick results cut to seeds 0-4, every crosslearn
    # row written twice: counted twice, the 5 seeds would pass the 10-seed rule
    golden = Path(__file__).parent / "data" / "synthetic_quick.csv"
    rows = [row for row in load_results_csv(golden) if int(row["seed"]) < 5]
    repeated = [row for row in rows if row["algo"] == "crosslearn"]
    path = tmp_path / "r.csv"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        fh.writelines(",".join(row.values()) + "\n" for row in rows + repeated)
    first = next(row for row in repeated if row["checkpoint"] == row["T"])
    what = (f"run '{first['run_id']}' (algo crosslearn, T {first['T']}, seed {first['seed']}) "
            f"has more than one final row")
    with pytest.raises(ConfigError, match=re.escape(what)):
        scaling_report(load_results_csv(path), algo="crosslearn")
    assert main(["scaling", str(path), "--algo", "crosslearn"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {what}\n"
    # the rows written once fit nothing at 5 seeds
    with pytest.raises(ConfigError, match="need >= 10 seeds per horizon"):
        scaling_report(rows, algo="crosslearn")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_scaling_refuses_a_non_finite_regret(tmp_path, capsys, bad):
    # 4 horizons x 10 seeds fit; one non-finite final regret must not turn
    # into a slope of nan
    def write(bad_regret):
        lines = [",".join(CSV_HEADER)]
        for horizon in (64, 128, 256, 512):
            for seed in range(10):
                regret = bad_regret if (horizon, seed) == (256, 3) else horizon ** 0.5 + seed
                lines.append(f"crosslearn-T{horizon}-s{seed},{seed},crosslearn,tabular,"
                             f"{horizon},{horizon},{regret},0,0")
        path = tmp_path / "r.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    assert main(["scaling", str(write(17.0))]) == 0
    capsys.readouterr()
    path = write(bad)
    with pytest.raises(ConfigError, match=f"non-finite cum_regret in results row .*"
                                          f"'crosslearn-T256-s3'.*'cum_regret': '{bad}'"):
        scaling_report(load_results_csv(path))
    assert main(["scaling", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: non-finite cum_regret")


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


@pytest.mark.parametrize("workers", [1, 2])
def test_known_nu_lockstep_reproduces_golden_csv(tmp_path, workers):
    # the lockstep known_nu batches write the committed bytes whichever
    # worker count splits the seeds
    config = json.loads((ROOT / "configs" / "known_nu_lockstep.json").read_text())
    config["output"] = str(tmp_path / "known_nu_lockstep.csv")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", str(cfg_path), "--workers", str(workers)]) == 0
    golden = (Path(__file__).parent / "data" / "known_nu_lockstep.csv").read_bytes()
    assert (tmp_path / "known_nu_lockstep.csv").read_bytes() == golden


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
