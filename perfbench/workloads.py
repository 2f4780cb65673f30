"""Workloads of the crosslearn benchmark.

A workload is a fixed unit of calls into the package's public entry points.
Its run seeds come from the workload seed: every workload draws its run
seeds from a pool of SEED_POOL seeds, and `reference.json` holds the
recorded output of every (part, algo, horizon, run seed) in that pool, so
the output of any workload seed can be checked against the reference.

  synthetic_grid   run_experiment + write_csv on the criteria 05-07
                   fixture (tabular C=64 K=8), process pool of nproc workers
  reductions_grid  run_experiment + write_csv, serial: the criterion-08
                   auction (one call per horizon, K = ceil(T^(1/3))) and the
                   sleeping reduction
  tuned_audit      the criterion-09 audit (TabularEnv.synthetic + audit_run
                   per seed, then audit_summary) with theory-tuned parameters
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from crosslearn import envs, harness, learner, simplex, verify  # noqa: E402

SEED_POOL = 32
REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(HERE, "out")

SYNTH_ENV = {"kind": "tabular_synthetic", "C": 64, "K": 8}
SYNTH_GRID = [1024, 2048, 4096, 8192]
AUCTION_ENV = {
    "kind": "auction",
    "values": {"kind": "discrete", "atoms": [(i + 0.5) / 64 for i in range(64)],
               "probs": [1.0] * 64},
    "payments": {"kind": "iid_uniform", "lo": 0.25, "hi": 1.0},
}
AUCTION_GRID = [2048, 4096, 8192]
SLEEPING_ENV = {"kind": "sleeping", "K": 6}
SLEEPING_GRID = [3000, 6000]
AUDIT_SHAPE = {"n_contexts": 64, "n_arms": 8, "horizon": 16384,
               "gap": 0.7, "noise": 0.15}

# run seeds per unit of each workload
RUN_SEEDS = {"synthetic_grid": 4, "reductions_grid": 2, "tuned_audit": 6}
WORKLOADS = tuple(RUN_SEEDS)


def nproc():
    return len(os.sched_getaffinity(0))


def git_commit():
    """HEAD of the checkout the benchmark runs in, or None outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_seeds(workload, seed):
    """The run seeds of one workload seed: a fixed draw from the pool."""
    draw = random.Random(f"{workload}/{seed}").sample(range(SEED_POOL),
                                                     RUN_SEEDS[workload])
    return sorted(draw)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    output: object       # what the unit's public calls returned
    experiment_s: float  # wall time inside run_experiment
    sim_s: float         # sum of RunResult.wall_ms, in seconds


def synthetic_parts(seeds, workers, env=SYNTH_ENV, grid=SYNTH_GRID):
    cross = {"env": env, "algos": ["crosslearn"], "T_grid": list(grid),
             "seeds": list(seeds), "overrides": "calibrated", "workers": workers}
    base = {"env": env, "algos": ["known_nu", "exp3_per_context"],
            "T_grid": [grid[-1]], "seeds": list(seeds), "workers": workers}
    return [("calibrated", cross), ("baselines", base)]


def reductions_parts(seeds, auction_grid=AUCTION_GRID, sleeping_grid=SLEEPING_GRID):
    parts = []
    for horizon in auction_grid:
        n_arms = math.ceil(horizon ** (1.0 / 3.0))
        p = learner.calibrated_params(n_arms, horizon, eta_scale=n_arms / 8.0)
        overrides = {"eta": p.eta, "gamma": p.gamma, "L": p.epoch_len,
                     "unsafe": True}
        parts.append(("auction", {
            "env": AUCTION_ENV, "algos": ["crosslearn"], "T_grid": [horizon],
            "seeds": list(seeds), "overrides": overrides, "workers": 1}))
    parts.append(("sleeping", {
        "env": SLEEPING_ENV, "algos": ["crosslearn", "exp3_per_context"],
        "T_grid": list(sleeping_grid), "seeds": list(seeds),
        "overrides": "calibrated", "workers": 1}))
    return parts


def direct(fn):
    return fn()


def split(config):
    """A config as one config per (algo, horizon), in the order
    run_experiment runs them; a serial one also per seed."""
    pooled = int(config.get("workers", 1)) > 1
    seeds = [config["seeds"]] if pooled else [[s] for s in config["seeds"]]
    return [dict(config, algos=[algo], T_grid=[horizon], seeds=group)
            for algo in config["algos"] for horizon in config["T_grid"]
            for group in seeds]


class GridPlan:
    """run_experiment once per (part, algo, horizon), and per seed where
    serial, then write_csv of all results."""

    def __init__(self, name, parts, out_path):
        self.name = name
        self.parts = parts
        self.out_path = out_path
        self.seeds = list(parts[0][1]["seeds"])
        self.workers = max(int(c.get("workers", 1)) for _, c in parts)
        self.rounds = sum(len(c["algos"]) * sum(c["T_grid"]) * len(c["seeds"])
                          for _, c in parts)
        self.keys = [f"{part}/{algo}-T{horizon}-s{seed}"
                     for part, c in parts for algo in c["algos"]
                     for horizon in c["T_grid"] for seed in c["seeds"]]

    def serial(self):
        if self.workers == 1:
            return self
        parts = [(p, dict(c, workers=1)) for p, c in self.parts]
        return GridPlan(self.name, parts, self.out_path)

    def validate(self):
        for _, config in self.parts:
            harness.validate_config(config)

    def run(self, call=direct):
        """Run the unit; call(fn) makes each public call, fn()."""
        results = []
        experiment_s = 0.0
        for _, part in self.parts:
            for config in split(part):
                t0 = time.perf_counter()
                results.extend(call(lambda: harness.run_experiment(config)))
                experiment_s += time.perf_counter() - t0
        text = call(lambda: harness.write_csv(results, self.out_path))
        return Outcome(text, experiment_s,
                       sum(r.wall_ms for r in results) / 1000.0)

    @staticmethod
    def fingerprint(output):
        return output

    def outputs(self, output):
        """(header, [(key, digest), ...]) with one entry per run's rows."""
        lines = output.split("\n")
        if lines[-1] == "":
            lines.pop()
        blocks = []
        for line in lines[1:]:
            run_id = line.split(",", 1)[0]
            if blocks and blocks[-1][0] == run_id:
                blocks[-1][1].append(line)
            else:
                blocks.append((run_id, [line]))
        keys = iter(self.keys)
        out = []
        for run_id, rows in blocks:
            key = next(keys, None)
            if key is None or key.split("/", 1)[1] != run_id:
                key = f"?/{run_id}"
            out.append((key, digest("\n".join(rows) + "\n")))
        return lines[0] if lines else "", out


def audit_counts(records):
    """The integer tallies audit_summary divides, recomputed here with its
    default beta range [0.5, 2]."""
    good = [r for r in records if r.conc_ok and r.proxy_ok]
    return [len(records), sum(bool(r.conc_ok) for r in records),
            sum(bool(r.proxy_ok) for r in records), len(good),
            sum(int(((r.beta >= 0.5) & (r.beta <= 2.0)).sum()) for r in good),
            sum(int(r.beta.size) for r in good),
            sum(int(r.rounds) for r in good),
            sum(int(r.fallback_rounds) for r in good)]


def expected_summary(counts):
    n, conc, proxy, good, beta_ok, beta_cells, good_rounds, good_fb = counts
    return {
        "epochs": n,
        "conc_fraction": conc / n,
        "proxy_fraction": proxy / n,
        "good_fraction": good / n,
        "beta_in_range_fraction": (beta_ok / beta_cells) if beta_cells else 1.0,
        "fallback_fraction": (good_fb / good_rounds) if good_rounds else 0.0,
    }


def records_digest(records):
    parts = []
    for r in records:
        parts.append(repr((r.epoch, r.freq_true.tobytes().hex(),
                           r.freq_est.tobytes().hex(), r.beta.tobytes().hex(),
                           bool(r.conc_ok), bool(r.proxy_ok),
                           int(r.fallback_rounds), int(r.rounds))))
    return digest("\n".join(parts))


class AuditPlan:
    """Criterion-09 audit: per seed a fresh synthetic env and audit_run, then
    audit_summary over all records, with tune_parameters(K, T)."""

    name = "tuned_audit"

    def __init__(self, seeds, shape=AUDIT_SHAPE):
        self.seeds = list(seeds)
        self.shape = dict(shape)
        self.workers = 1
        self.rounds = self.shape["horizon"] * len(self.seeds)
        self.keys = [f"s{seed}" for seed in self.seeds]

    def serial(self):
        return self

    def validate(self):
        learner.tune_parameters(self.shape["n_arms"], self.shape["horizon"])

    def run(self, call=direct):
        """Run the unit; call(fn) makes each seed's calls, and the summary."""
        sh = self.shape
        params = learner.tune_parameters(sh["n_arms"], sh["horizon"])

        def audit(seed):
            env = envs.TabularEnv.synthetic(
                sh["n_contexts"], sh["n_arms"], sh["horizon"],
                simplex.RngStream(seed, harness.ENV_STREAM),
                gap=sh["gap"], noise=sh["noise"])
            return verify.audit_run(env, params, seed)

        per_seed = [call(lambda: audit(seed)) for seed in self.seeds]
        summary = call(lambda: verify.audit_summary(
            [r for recs in per_seed for r in recs]))
        return Outcome((per_seed, summary), 0.0, 0.0)

    def fingerprint(self, output):
        per_seed, summary = output
        return ([(key, records_digest(recs), audit_counts(recs))
                 for key, recs in zip(self.keys, per_seed)], summary)


def plan_for(workload, seeds, workers):
    """The unit of one workload on the given run seeds."""
    out = os.path.join(OUT_DIR, f"{workload}.csv")
    if workload == "synthetic_grid":
        return GridPlan(workload, synthetic_parts(seeds, workers), out)
    if workload == "reductions_grid":
        return GridPlan(workload, reductions_parts(seeds), out)
    return AuditPlan(seeds)


def make_plan(workload, seed):
    """The unit of one workload at one workload seed."""
    plan = plan_for(workload, run_seeds(workload, seed), nproc())
    plan.seed = seed
    return plan


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check(plan, outcome, reference):
    """Number of the unit's runs whose output differs from the reference.

    A grid run is one (part, algo, horizon, seed) block of CSV rows; an
    audit run is one seed's epoch records. A wrong CSV header, a wrong run
    order or a wrong audit summary fails every run of the unit."""
    ref = reference[plan.name]
    if isinstance(plan, GridPlan):
        header, blocks = plan.outputs(outcome.output)
        if header != reference["csv_header"] or [k for k, _ in blocks] != plan.keys:
            return len(plan.keys)
        return sum(ref.get(key) != dg for key, dg in blocks)
    per_seed, summary = plan.fingerprint(outcome.output)
    failed = 0
    totals = [0] * 8
    for key, dg, counts in per_seed:
        want = ref.get(key)
        failed += want is None or want["digest"] != dg or want["counts"] != counts
        if want is not None:
            totals = [a + b for a, b in zip(totals, want["counts"])]
    if summary != expected_summary(totals):
        return len(plan.keys)
    return failed
