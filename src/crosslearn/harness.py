"""Experiment harness and command-line entry point.

Configs are JSON: an environment spec, a list of algorithms, an ascending
horizon grid, seeds, optional parameter overrides for the cross-learner,
and an output path. validate_config checks a config before any run; the
env spec is checked by envs.check_spec, whose EnvError it raises as a
ConfigError with the same text. Each (algo, T, seed) run gets a fresh
environment from stream (seed, 0) and a fresh learner from stream
(seed, algo-id), so results are reproducible and independent of execution
order; parallel execution (capped by CROSSLEARN_THREADS) returns exactly
the serial results. The known_nu seeds of a horizon run in lockstep
groups, one learner stepping several seeds, each with the bits it gets
alone.

The results CSV has one row per checkpoint (powers of two and T) with the
fixed header below. Wall-clock timing breaks byte-level reproducibility, so
the wall_ms column is written as 0 unless `crosslearn run --timing` asks for
it; measured times always live in the in-memory RunResult.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .accumulator import make_accumulator
from .baselines import KnownNuLearner, PerContextExp3, known_nu_rate
from .envs import (EnvError, RegretTracker, build_env, check_spec, is_int, is_whole, preload,
                   spec_arms)
from .learner import (CrossLearner, ParamError, calibrated_params,
                      tune_parameters, with_overrides)
from .simplex import RngStream

CSV_HEADER = ["run_id", "seed", "algo", "env", "T", "checkpoint",
              "cum_regret", "fallback_count", "wall_ms"]

ENV_STREAM = 0
ALGO_STREAMS = {"crosslearn": 1, "known_nu": 2, "exp3_per_context": 3}

THREADS_VAR = "CROSSLEARN_THREADS"

# Largest stacked probe table, in floats (seeds x arms x contexts), that
# one lockstep batch of known_nu seeds holds. Stacking pays the fixed cost
# of a round's numpy calls once per batch instead of once per seed, but
# not their work per float. Measured per seed-round of the learner alone
# (numpy 2.4.6, Python 3.11, 2-vCPU x86_64): at 512 floats per seed
# (tabular C = 64, K = 8) 18.7 to 22 us at one seed, 12 to 14 from 4 to
# 64 seeds, the best at 8 192 stacked floats; at 4 096 (C = 512) 45 to 46
# us at one seed, 39.6 at 16 384 stacked floats, 38 to 41 at 32 768 and
# 41 to 42 at 65 536; at 32 768 (C = 4 096) and 49 140 (sleeping K = 12)
# two seeds cost more per seed than one (277 against 268 us, 644 against
# 609). A seed whose table alone is larger runs by itself. Each seed of a
# batch also holds its env, so peak memory grows with the batch.
LOCKSTEP_FLOATS = 1 << 14

BOOTSTRAP_RESAMPLES = 10000
BOOTSTRAP_LEVEL = 0.95

CONFIG_FIELDS = ("env", "algos", "T_grid", "seeds", "overrides", "output", "workers")


class ConfigError(ValueError):
    pass


@dataclass
class RunResult:
    run_id: str
    seed: int
    algo: str
    env_name: str
    horizon: int
    checkpoints: list  # [(t, cum_regret), ...], regret already rescaled
    fallback_count: int
    wall_ms: float


def checkpoint_schedule(horizon):
    """Powers of two up to the horizon, plus the horizon itself."""
    cps = [1 << j for j in range(horizon.bit_length()) if (1 << j) <= horizon]
    if cps[-1] != horizon:
        cps.append(horizon)
    return cps


def crosslearn_params(n_arms, horizon, overrides):
    try:
        base = tune_parameters(n_arms, horizon)
    except ParamError as err:
        raise ConfigError(f"crosslearn at horizon {horizon}: {err}") from err
    if overrides in (None, "tuned"):
        return base
    if overrides == "calibrated":
        return calibrated_params(n_arms, horizon)
    if isinstance(overrides, dict):
        ov = dict(overrides)
        unsafe = bool(ov.pop("unsafe", False))
        unknown = set(ov) - {"eta", "gamma", "L"}
        if unknown:
            raise ConfigError(f"unknown override fields {sorted(unknown)}")
        try:
            return with_overrides(base, unsafe=unsafe, **ov)
        except (TypeError, ValueError) as err:  # ParamError is a ValueError
            raise ConfigError(f"invalid override: {err}") from err
    raise ConfigError(f"overrides must be a dict, 'tuned', or 'calibrated': {overrides!r}")


def env_accumulator(env):
    return make_accumulator(env.acc_kind, env.n_arms, getattr(env, "n_contexts", None))


def build_crosslearner(env, params, seed):
    """The CrossLearner of a run on env, from stream (seed, ALGO_STREAMS["crosslearn"])."""
    return CrossLearner(params, env_accumulator(env), RngStream(seed, ALGO_STREAMS["crosslearn"]),
                        active=env.active_mask, space=env.context_space)


def build_algo(name, env, seed, overrides):
    """The learner `name` for a run of env over its horizon, from stream
    (seed, ALGO_STREAMS[name]). known_nu's learner has a seed axis: over
    this one run, or over the runs of a list of envs of one spec and the
    list of their seeds, which it steps in lockstep; the first env gives
    the space and active sets that the spec fixes for all of them."""
    if name == "known_nu":
        envs, seeds = (env, seed) if isinstance(env, list) else ([env], [seed])
        first = envs[0]
        return KnownNuLearner(
            [env_accumulator(e) for e in envs], first.known_nu_oracle(),
            known_nu_rate(first.n_arms, first.horizon),
            [RngStream(s, ALGO_STREAMS[name]) for s in seeds], active=first.active_mask)
    if name == "crosslearn":
        return build_crosslearner(env, crosslearn_params(env.n_arms, env.horizon, overrides), seed)
    if name == "exp3_per_context":
        return PerContextExp3(env.n_arms, RngStream(seed, ALGO_STREAMS[name]),
                              active=env.active_mask, fresh_contexts=env.grouping == "round")
    raise ConfigError(f"unknown algorithm {name!r}")


def _play(envs, algo, algo_name, seeds):
    """The RunResults of the runs of `seeds` on their envs, all stepped by
    `algo` in lockstep: in every round each seed takes its turn, in order
    (one seed but for a known_nu learner with a seed axis). Each run's
    RegretTracker takes every round, and its regret is read at every
    checkpoint. Each run's wall_ms is an equal share of the loop's wall
    time."""
    horizon = envs[0].horizon
    lanes = [(env, RegretTracker(env), []) for env in envs]
    step = algo.step
    cp_iter = iter(checkpoint_schedule(horizon))
    next_cp = next(cp_iter)
    start = time.perf_counter()
    for t in range(horizon):
        for env, tracker, _ in lanes:
            context = env.context(t)
            tracker.update(t, context, step(context, lambda a: env.reveal(t, a)))
        if t + 1 == next_cp:
            for env, tracker, out in lanes:
                out.append((t + 1, tracker.regret() * env.regret_scale))
            next_cp = next(cp_iter, None)
    wall_ms = (time.perf_counter() - start) * 1000.0 / len(envs)
    return [RunResult(run_id=f"{algo_name}-T{horizon}-s{seed}", seed=seed, algo=algo_name,
                      env_name=env.kind, horizon=horizon, checkpoints=out,
                      fallback_count=algo.fallback_count, wall_ms=wall_ms)
            for seed, (env, _, out) in zip(seeds, lanes)]


def run_single(env_spec, algo_name, horizon, seed, overrides=None):
    """Execute one run and return its RunResult (regret per checkpoint)."""
    env = build_env(env_spec, horizon, RngStream(seed, ENV_STREAM))
    return _play([env], build_algo(algo_name, env, seed, overrides), algo_name, [seed])[0]


def split_seeds(seeds, parts):
    """`seeds` as `parts` contiguous lists, in order, whose sizes differ by
    at most one, the larger first."""
    size, extra = divmod(len(seeds), parts)
    bounds = [0]
    for i in range(parts):
        bounds.append(bounds[-1] + size + (i < extra))
    return [list(seeds[a:b]) for a, b in zip(bounds, bounds[1:])]


def lockstep_batches(seeds, floats_per_seed):
    """A group's seeds as the fewest contiguous lockstep batches whose
    stacked probe tables, floats_per_seed (arms x contexts) per seed,
    hold at most LOCKSTEP_FLOATS floats; a seed whose table alone is
    larger is a batch of its own."""
    per_batch = max(1, LOCKSTEP_FLOATS // floats_per_seed)
    return split_seeds(seeds, -(-len(seeds) // per_batch))


def run_lockstep(env_spec, horizon, seeds):
    """The known_nu RunResults of `seeds`, in order, stepped in
    lockstep_batches: each batch is one learner with a seed axis over the
    envs of its seeds, built when the batch starts."""
    first = build_env(env_spec, horizon, RngStream(seeds[0], ENV_STREAM))
    results = []
    batches = lockstep_batches(seeds, first.n_arms * len(first.known_nu_oracle()))
    for k, batch in enumerate(batches):
        envs = [first if k == i == 0 else build_env(env_spec, horizon, RngStream(seed, ENV_STREAM))
                for i, seed in enumerate(batch)]
        results.extend(_play(envs, build_algo("known_nu", envs, batch, None), "known_nu", batch))
    return results


def validate_config(config):
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    for key in config:
        if key not in CONFIG_FIELDS:
            # an old config may still set timing: name the flag that does it
            hint = "; use `crosslearn run --timing`" if key == "timing" else ""
            raise ConfigError(f"unknown config field {key!r}{hint}")
    algos = config.get("algos")
    if not isinstance(algos, (list, tuple)) or not algos:
        raise ConfigError(f"config needs a nonempty algos list, got {algos!r}")
    for a in algos:
        if not isinstance(a, str) or a not in ALGO_STREAMS:
            raise ConfigError(f"unknown algorithm {a!r}")
    env_spec = config.get("env")
    try:
        check_spec(env_spec, known_nu="known_nu" in algos)
    except EnvError as err:
        raise ConfigError(str(err)) from err
    grid = config.get("T_grid")
    if (not isinstance(grid, (list, tuple)) or not grid
            or not all(is_whole(t, 1) for t in grid)):
        raise ConfigError(f"T_grid must be a nonempty list of positive integer "
                          f"horizons, got {grid!r}")
    if list(grid) != sorted(set(grid)):
        raise ConfigError("T_grid must be strictly ascending")
    seeds = config.get("seeds")
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ConfigError(f"config needs a nonempty seeds list, got {seeds!r}")
    seen = set()
    for seed in seeds:
        if not is_whole(seed, 0):
            raise ConfigError(f"seeds must be integers >= 0, got {seed!r}")
        if seed in seen:  # a repeat would be scored twice as two seeds
            raise ConfigError(f"seeds must be distinct, got seed {seed!r} twice")
        seen.add(seed)
    if not isinstance(config.get("output", ""), str):
        raise ConfigError(f"output must be a path, got {config['output']!r}")
    if "workers" in config:
        workers = config["workers"]
        if not is_int(workers, 1):
            raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    if "crosslearn" in algos or config.get("overrides") is not None:
        # built at every horizon, so bad parameters fail before any run
        for horizon in map(int, grid):
            crosslearn_params(spec_arms(env_spec, horizon), horizon, config.get("overrides"))


def _run_task(task):
    env_spec, algo, horizon, seeds, overrides = task
    if len(seeds) == 1:
        return [run_single(env_spec, algo, horizon, seeds[0], overrides)]
    return run_lockstep(env_spec, horizon, seeds)


def worker_cap():
    """Most pool workers: CROSSLEARN_THREADS when set, else the CPUs this
    process may run on (its affinity set, where the platform reports one)."""
    cap = os.environ.get(THREADS_VAR)
    if cap is None:
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return os.cpu_count() or 1
    try:
        n = int(cap)
    except ValueError as err:
        raise ConfigError(f"{THREADS_VAR} must be an integer, got {cap!r}") from err
    return max(1, n)


def map_tasks(fn, tasks, workers):
    """[fn(task) for task in tasks], in order: serially when at most one of
    `workers` is left after the CROSSLEARN_THREADS cap (worker_cap) and the
    number of tasks, else on a process pool of that many workers, one task
    at a time each. fn must be a module-level function. The pool machinery
    (multiprocessing) is imported here, by the first run that starts a
    pool, so a serial run never loads it; so is numpy.random, which every
    run's RngStream needs, so that forked workers inherit it instead of
    each importing it again on every call."""
    workers = min(workers, worker_cap(), len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    import numpy.random  # noqa: F401

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def run_experiment(config):
    """Run every (algo, T, seed) combination in the config; deterministic.
    Each run of crosslearn and exp3_per_context is one map_tasks task. The
    known_nu seeds of each horizon are split into contiguous groups, one
    per worker left after worker_cap (fewer when there are fewer seeds),
    and each group is one task that steps its seeds in lockstep
    (run_lockstep). The results come back in (algo, T, seed) order, each
    run with its share of its batch's wall time as wall_ms."""
    validate_config(config)
    preload(config["env"])
    overrides = config.get("overrides")
    workers = int(config.get("workers", 1))
    seeds = [int(seed) for seed in config["seeds"]]
    groups = split_seeds(seeds, min(workers, worker_cap(), len(seeds)))
    tasks = [
        (config["env"], algo, int(horizon), group,
         overrides if algo == "crosslearn" else None)
        for algo in config["algos"]
        for horizon in config["T_grid"]
        for group in (groups if algo == "known_nu" else [[seed] for seed in seeds])
    ]
    return [result for results in map_tasks(_run_task, tasks, workers) for result in results]


def results_rows(results, timing=False):
    rows = []
    for r in results:
        for cp, regret in r.checkpoints:
            rows.append([
                r.run_id, r.seed, r.algo, r.env_name, r.horizon, cp,
                f"{regret:.17g}", r.fallback_count,
                int(round(r.wall_ms)) if timing else 0,
            ])
    return rows


def write_csv(results, path, timing=False):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows(results_rows(results, timing=timing))
    data = buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(data)
    return data


def load_results_csv(path):
    """The rows of a results CSV as dicts of strings; ConfigError on a file
    that is not UTF-8 text, an empty file, a wrong header or a row with the
    wrong number of fields."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ConfigError("empty results file")
            if header != CSV_HEADER:
                raise ConfigError(f"unexpected CSV header {header!r}")
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise ConfigError(f"line {reader.line_num}: expected {len(header)} "
                                      f"fields, got {len(row)}")
                rows.append(dict(zip(header, row)))
        except UnicodeDecodeError as err:
            raise ConfigError(f"cannot read {path}: {err}") from err
        return rows


@dataclass
class ScalingFit:
    slope: float
    stderr: float
    horizons: list
    means: list


def fit_scaling(points):
    """OLS slope of log(mean final regret) against log(T).

    points: iterable of (T, final_regret) pairs, one per (T, seed). Needs at
    least 4 distinct horizons and at least 10 seeds per horizon.
    """
    by_T = {}
    for horizon, regret in points:
        by_T.setdefault(int(horizon), []).append(float(regret))
    if len(by_T) < 4:
        raise ConfigError(f"need >= 4 horizons for a scaling fit, got {len(by_T)}")
    counts = {T: len(v) for T, v in by_T.items()}
    if min(counts.values()) < 10:
        raise ConfigError(f"need >= 10 seeds per horizon, got {counts}")
    horizons = sorted(by_T)
    means = [float(np.mean(by_T[T])) for T in horizons]
    if min(means) <= 0:
        raise ConfigError("mean regret must be positive to fit a log-log slope")
    x = np.log(np.asarray(horizons, dtype=float))
    y = np.log(np.asarray(means))
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    resid = y - (y.mean() + slope * xc)
    dof = len(horizons) - 2
    stderr = float(math.sqrt((resid @ resid) / dof / (xc @ xc))) if dof > 0 else 0.0
    return ScalingFit(slope, stderr, horizons, means)


def bootstrap_ci(values):
    """Percentile bootstrap CI for the mean at BOOTSTRAP_LEVEL, over
    BOOTSTRAP_RESAMPLES resamples drawn from seed 0."""
    gen = np.random.default_rng(0)
    values = np.asarray(values, dtype=float)
    idx = gen.integers(0, values.size, size=(BOOTSTRAP_RESAMPLES, values.size))
    means = values[idx].mean(axis=1)
    tail = (1 - BOOTSTRAP_LEVEL) / 2
    lo, hi = np.quantile(means, [tail, 1 - tail])
    return float(lo), float(hi)


def scaling_report(rows, algo=None):
    """Per-algorithm scaling fits from results CSV rows, with bootstrap CIs
    on the per-horizon mean regret. ConfigError when `algo` has no rows, a
    row's cum_regret is not a finite number or a run has two final rows."""
    if algo is not None and not any(row["algo"] == algo for row in rows):
        present = ", ".join(sorted({row["algo"] for row in rows})) or "none"
        raise ConfigError(f"no rows for algo {algo!r} (algos present: {present})")
    final = {}
    for row in rows:
        if algo is not None and row["algo"] != algo:
            continue
        try:
            horizon, checkpoint = int(row["T"]), int(row["checkpoint"])
            regret = float(row["cum_regret"])
        except ValueError as err:
            raise ConfigError(f"malformed results row {row!r}: {err}") from err
        if not math.isfinite(regret):
            raise ConfigError(f"non-finite cum_regret in results row {row!r}")
        if checkpoint == horizon:
            runs = final.setdefault((row["algo"], horizon), {})
            if row["seed"] in runs:
                raise ConfigError(f"run {row['run_id']!r} (algo {row['algo']}, T {horizon}, "
                                  f"seed {row['seed']}) has more than one final row")
            runs[row["seed"]] = regret
    report = {}
    for name in sorted({k[0] for k in final}):
        points = []
        cis = {}
        for (a, horizon), runs in sorted(final.items()):
            if a != name:
                continue
            vals = list(runs.values())
            points.extend((horizon, v) for v in vals)
            cis[horizon] = bootstrap_ci(vals)
        fit = fit_scaling(points)
        report[name] = {"fit": fit, "ci": cis}
    return report


def _check_output(path):
    """ConfigError unless `path` names a file in an existing directory."""
    if not path:
        raise ConfigError("output must be a nonempty path")
    if os.path.isdir(path):
        raise ConfigError(f"output {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory {parent!r} does not exist")


def _cmd_run(args):
    import json

    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 1
    if args.workers is not None and isinstance(config, dict):
        config["workers"] = args.workers
    try:
        # the config and the output path are checked before any run starts
        validate_config(config)
        out = config.get("output", "results.csv")
        _check_output(out)
        results = run_experiment(config)
    except (ConfigError, ParamError, EnvError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        write_csv(results, out, timing=args.timing)
    except OSError as err:
        print(f"error: cannot write {out}: {err}", file=sys.stderr)
        return 1
    print(f"wrote {sum(len(r.checkpoints) for r in results)} rows "
          f"({len(results)} runs) to {out}")
    return 0


def _cmd_scaling(args):
    try:
        rows = load_results_csv(args.results)
        if not rows:
            raise ConfigError(f"no result rows in {args.results}")
        report = scaling_report(rows, algo=args.algo)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for name, entry in report.items():
        fit = entry["fit"]
        print(f"{name}: slope {fit.slope:.4f} +/- {fit.stderr:.4f} "
              f"over T={fit.horizons}")
        for horizon, mean in zip(fit.horizons, fit.means):
            lo, hi = entry["ci"][horizon]
            print(f"  T={horizon}: mean regret {mean:.3f} (95% CI {lo:.3f}..{hi:.3f})")
    return 0


def _int_at_least(low):
    """argparse type: an integer >= low."""
    def integer(text):
        import argparse

        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value
    return integer


def _cmd_verify(args):
    from .verify import run_verify

    try:
        # the audit's pool reads CROSSLEARN_THREADS: check it before the lemma suite
        worker_cap()
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return run_verify(quick=args.quick, seeds=args.seeds, trials=args.trials)


def main(argv=None):
    # imported here, not with the package: only the CLI parses arguments
    import argparse

    parser = argparse.ArgumentParser(
        prog="crosslearn",
        description="cross-learning contextual bandit simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--timing", action="store_true",
                       help="write measured wall_ms (breaks byte determinism)")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--quick", action="store_true")
    p_ver.add_argument("--seeds", type=_int_at_least(1), default=None,
                       help="audited seeds (default 100, 10 with --quick)")
    # the lemma checks need two trials for a sample standard deviation
    p_ver.add_argument("--trials", type=_int_at_least(2), default=None,
                       help="trials per lemma cell (default 100000, 20000 with --quick)")
    p_ver.set_defaults(func=_cmd_verify)

    p_sc = sub.add_parser("scaling", help="fit regret scaling from a results CSV")
    p_sc.add_argument("results")
    p_sc.add_argument("--algo", default=None)
    p_sc.set_defaults(func=_cmd_scaling)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
