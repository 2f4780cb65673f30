"""Experiment harness and command-line entry point.

Configs are JSON: an environment spec, a list of algorithms, an ascending
horizon grid, seeds, optional parameter overrides for the cross-learner,
and an output path. Each (algo, T, seed) run gets a fresh environment from
stream (seed, 0) and a fresh learner from stream (seed, algo-id), so results
are reproducible and independent of execution order; parallel execution
(capped by CROSSLEARN_THREADS) returns exactly the serial results.

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
from .envs import (SCORE_BLOCK, SUBSET_SPACE_MAX_ARMS, AuctionEnv, EnvError, RegretTracker,
                   SleepingEnv, TabularEnv, default_auction_arms)
from .learner import (CrossLearner, ParamError, calibrated_params,
                      tune_parameters, with_overrides)
from .simplex import RngStream

CSV_HEADER = ["run_id", "seed", "algo", "env", "T", "checkpoint",
              "cum_regret", "fallback_count", "wall_ms"]

ENV_STREAM = 0
ALGO_STREAMS = {"crosslearn": 1, "known_nu": 2, "exp3_per_context": 3}

THREADS_VAR = "CROSSLEARN_THREADS"

BOOTSTRAP_RESAMPLES = 10000
BOOTSTRAP_LEVEL = 0.95

CONFIG_FIELDS = ("env", "algos", "T_grid", "seeds", "overrides", "output", "workers")

# env kind -> (required fields, optional fields) of its spec, besides "kind"
ENV_FIELDS = {
    "tabular_synthetic": (("C", "K"), ("gap", "noise", "nu", "active")),
    "auction": ((), ("K", "values", "payments")),
    "sleeping": (("K",), ("availability", "losses")),
}


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


def _is_int(value, low):
    """value is an integer (not a bool) >= low."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= low)


def _is_whole(value, low):
    """value is an integer (not a bool) or a float with no fractional part
    (JSON may write 1e3 or 512.0), >= low; the runs apply int() to it."""
    return _is_int(value, low) or (isinstance(value, float) and value.is_integer()
                                   and value >= low)


def check_env_spec(env_spec):
    """Return the kind of an env spec; raise ConfigError naming the first
    missing or unknown field, or a C or K that is not a whole number >= 1
    (or null, where it is optional)."""
    if not isinstance(env_spec, dict) or "kind" not in env_spec:
        raise ConfigError("config needs an env spec with a kind")
    kind = env_spec["kind"]
    if kind not in ENV_FIELDS:
        raise ConfigError(f"unknown environment kind {kind!r}")
    required, optional = ENV_FIELDS[kind]
    for key in required:
        if key not in env_spec:
            raise ConfigError(f"{kind} env spec needs the field {key!r}")
    for key in env_spec:
        if key != "kind" and key not in required and key not in optional:
            raise ConfigError(f"unknown field {key!r} in the {kind} env spec")
    for key in ("C", "K"):
        if key not in env_spec:
            continue
        value = env_spec[key]
        # an optional size given as null takes its default
        if not (_is_whole(value, 1) or value is None and key in optional):
            raise ConfigError(f"env spec field {key!r} must be an integer >= 1, "
                              f"got {value!r}")
    return kind


def spec_arms(env_spec, horizon):
    """Number of arms of the env a checked spec builds at this horizon."""
    n_arms = env_spec.get("K")
    return default_auction_arms(horizon) if n_arms is None else int(n_arms)


def build_env(env_spec, horizon, rng):
    kind = check_env_spec(env_spec)
    spec = dict(env_spec)
    del spec["kind"]
    if kind == "tabular_synthetic":
        return TabularEnv.synthetic(
            n_contexts=int(spec.pop("C")), n_arms=int(spec.pop("K")),
            horizon=horizon, rng=rng, **spec)
    if kind == "auction":
        n_arms = spec.pop("K", None)
        return AuctionEnv.generate(
            horizon, rng, values=spec.pop("values", None),
            payments=spec.pop("payments", None),
            n_arms=int(n_arms) if n_arms is not None else None)
    return SleepingEnv.generate(
        horizon, int(spec.pop("K")), rng,
        availability=spec.pop("availability", None),
        losses=spec.pop("losses", None))


def crosslearn_params(n_arms, horizon, overrides):
    if overrides in (None, "tuned"):
        return tune_parameters(n_arms, horizon)
    if overrides == "calibrated":
        return calibrated_params(n_arms, horizon)
    if isinstance(overrides, dict):
        ov = dict(overrides)
        unsafe = bool(ov.pop("unsafe", False))
        unknown = set(ov) - {"eta", "gamma", "L"}
        if unknown:
            raise ConfigError(f"unknown override fields {sorted(unknown)}")
        base = tune_parameters(n_arms, horizon)
        try:
            return with_overrides(base, unsafe=unsafe, **ov)
        except (TypeError, ValueError) as err:  # ParamError is a ValueError
            raise ConfigError(f"invalid override: {err}") from err
    raise ConfigError(f"overrides must be a dict, 'tuned', or 'calibrated': {overrides!r}")


def build_algo(name, env, seed, overrides):
    """The learner `name` for a run of env over its horizon, from stream
    (seed, ALGO_STREAMS[name])."""
    rng = RngStream(seed, ALGO_STREAMS[name])
    n_contexts = getattr(env, "n_contexts", None)
    if name == "crosslearn":
        params = crosslearn_params(env.n_arms, env.horizon, overrides)
        acc = make_accumulator(env.acc_kind, env.n_arms, n_contexts)
        return CrossLearner(params, acc, rng, active=env.active_mask, space=env.context_space)
    if name == "known_nu":
        acc = make_accumulator(env.acc_kind, env.n_arms, n_contexts)
        return KnownNuLearner(acc, env.known_nu_oracle(),
                              known_nu_rate(env.n_arms, env.horizon), rng, active=env.active_mask)
    if name == "exp3_per_context":
        return PerContextExp3(env.n_arms, rng, active=env.active_mask)
    raise ConfigError(f"unknown algorithm {name!r}")


def run_single(env_spec, algo_name, horizon, seed, overrides=None):
    """Execute one run and return its RunResult (regret per checkpoint).
    Rounds are scored in blocks of SCORE_BLOCK, and at every checkpoint."""
    env = build_env(env_spec, horizon, RngStream(seed, ENV_STREAM))
    algo = build_algo(algo_name, env, seed, overrides)
    tracker = RegretTracker(env)
    cps = checkpoint_schedule(horizon)
    out = []
    cp_iter = iter(cps)
    next_cp = next(cp_iter)
    contexts = []
    arms = []
    start = time.perf_counter()
    for t in range(horizon):
        context = env.context(t)
        contexts.append(context)
        arms.append(algo.step(context, lambda a: env.reveal(t, a)))
        if len(arms) == SCORE_BLOCK or t + 1 == next_cp:
            tracker.score(range(t + 1 - len(arms), t + 1), contexts, arms)
            contexts.clear()
            arms.clear()
            if t + 1 == next_cp:
                out.append((t + 1, tracker.regret() * env.regret_scale))
                next_cp = next(cp_iter, None)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return RunResult(
        run_id=f"{algo_name}-T{horizon}-s{seed}",
        seed=seed, algo=algo_name, env_name=env.kind, horizon=horizon,
        checkpoints=out, fallback_count=algo.fallback_count,
        wall_ms=wall_ms)


def validate_config(config):
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    for key in config:
        if key not in CONFIG_FIELDS:
            # an old config may still set timing: name the flag that does it
            hint = "; use `crosslearn run --timing`" if key == "timing" else ""
            raise ConfigError(f"unknown config field {key!r}{hint}")
    env_spec = config.get("env")
    kind = check_env_spec(env_spec)
    algos = config.get("algos")
    if not isinstance(algos, (list, tuple)) or not algos:
        raise ConfigError(f"config needs a nonempty algos list, got {algos!r}")
    for a in algos:
        if not isinstance(a, str) or a not in ALGO_STREAMS:
            raise ConfigError(f"unknown algorithm {a!r}")
    if "known_nu" in algos and kind == "sleeping":
        # known_nu reads the env's subset distribution, which Bernoulli
        # availability enumerates only up to a size; fail before any run
        n_arms, availability = int(env_spec["K"]), env_spec.get("availability")
        bernoulli = not availability or (isinstance(availability, dict)
                                         and availability.get("kind", "bernoulli") == "bernoulli")
        if bernoulli and n_arms > SUBSET_SPACE_MAX_ARMS:
            raise ConfigError(
                f"known_nu needs the subset distribution of a Bernoulli sleeping env, "
                f"enumerated only for K <= {SUBSET_SPACE_MAX_ARMS}; got K={n_arms}")
    grid = config.get("T_grid")
    if (not isinstance(grid, (list, tuple)) or not grid
            or not all(_is_whole(t, 1) for t in grid)):
        raise ConfigError(f"T_grid must be a nonempty list of positive integer "
                          f"horizons, got {grid!r}")
    if list(grid) != sorted(set(grid)):
        raise ConfigError("T_grid must be strictly ascending")
    seeds = config.get("seeds")
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ConfigError(f"config needs a nonempty seeds list, got {seeds!r}")
    for seed in seeds:
        if not _is_whole(seed, 0):
            raise ConfigError(f"seeds must be integers >= 0, got {seed!r}")
    if not isinstance(config.get("output", ""), str):
        raise ConfigError(f"output must be a path, got {config['output']!r}")
    if "workers" in config:
        workers = config["workers"]
        if not _is_int(workers, 1):
            raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    if config.get("overrides") is not None:
        # validated at every horizon, so a bad override fails before any run
        for horizon in map(int, grid):
            crosslearn_params(spec_arms(config["env"], horizon), horizon, config["overrides"])


def _run_task(task):
    env_spec, algo, horizon, seed, overrides = task
    return run_single(env_spec, algo, horizon, seed, overrides)


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
    pool, so a serial run never loads it."""
    workers = min(workers, worker_cap(), len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def run_experiment(config):
    """Run every (algo, T, seed) combination in the config; deterministic."""
    validate_config(config)
    overrides = config.get("overrides")
    tasks = [
        (config["env"], algo, int(horizon), int(seed),
         overrides if algo == "crosslearn" else None)
        for algo in config["algos"]
        for horizon in config["T_grid"]
        for seed in config["seeds"]
    ]
    return map_tasks(_run_task, tasks, int(config.get("workers", 1)))


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
    """The rows of a results CSV as dicts of strings; ConfigError on an
    empty file, a wrong header or a row with the wrong number of fields."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
    on the per-horizon mean regret. ConfigError when `algo` has no rows."""
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
        if checkpoint == horizon:
            final.setdefault((row["algo"], horizon), []).append(regret)
    report = {}
    for name in sorted({k[0] for k in final}):
        points = []
        cis = {}
        for (a, horizon), vals in sorted(final.items()):
            if a != name:
                continue
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
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
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
