"""Verification suite: numeric checks of the analysis-side quantities.

Three families of checks:

* inverse_mean_bound_check: Monte-Carlo evidence that for iid samples in
  [0, 1] with mean mu, E[1/(mean_t + 16/t)] <= 1/mu, the inverse-moment
  bound behind the importance-weight analysis;
* inverse_moment_tail_sum: exact evaluation of the tail sum
  sum_{i=floor(k/16)}^{floor(k/4)} (i+1) * exp(-i) /
      (max(0, 1 - 2*sqrt((i+1)/k)) + 16/(k+1)),
  which must stay <= 2 for k >= 16;
* audit_run: plays a learner, reads its state after every round, and
  reports, per epoch, the exact observation frequencies
  f = E_nu[s_e(c, .)]/2, the learner's estimate, the weight ratio
  beta = (f + gamma)/(fhat + 1.5*gamma), the frequency concentration
  event, and a bound on the accumulated estimate magnitudes.

The audit events (named conc/proxy here) mirror the concentration analysis:
an epoch is "good" when both hold, and on good epochs beta must lie in
[1/2, 2] and the fallback should essentially never fire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import build_env
from .harness import ENV_STREAM, build_crosslearner, map_tasks
from .learner import _SnapView, tune_parameters
from .simplex import RngStream, space_masks

# samples of t draws averaged at once by inverse_mean_bound_check
MEAN_CHUNK = 20000
# the range of the weight ratio beta that good epochs must keep
BETA_LO, BETA_HI = 0.5, 2.0
# the env of tuned_synthetic_audit
AUDIT_ENV = {"kind": "tabular_synthetic", "C": 64, "K": 8, "gap": 0.7, "noise": 0.15}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def inverse_mean_bound_check(dist, t, n_trials=100000, rng=None):
    """Monte-Carlo check of E[1/(mean_t + 16/t)] <= 1/mu with a 99% CI.

    dist: ("bernoulli", mu) | ("uniform",) | ("beta", a, b). Passes when the
    CI upper end is at most 1/mu + 3 CI half-widths. Errors on mu = 0.
    """
    if rng is None:
        rng = RngStream(0, 99)
    gen = rng.gen
    kind = dist[0]
    if kind == "bernoulli":
        mu = float(dist[1])
        if mu <= 0:
            raise ValueError("bound is vacuous for mu = 0")
        means = gen.binomial(int(t), mu, int(n_trials)) / float(t)
    else:
        if kind == "uniform":
            mu, draw = 0.5, gen.random
        elif kind == "beta":
            a, b = float(dist[1]), float(dist[2])
            mu, draw = a / (a + b), (lambda shape: gen.beta(a, b, shape))
        else:
            raise ValueError(f"unknown distribution {dist!r}")
        means = np.empty(int(n_trials))
        done = 0
        while done < n_trials:
            m = min(MEAN_CHUNK, n_trials - done)
            means[done:done + m] = draw((m, int(t))).mean(axis=1)
            done += m
    vals = 1.0 / (means + 16.0 / float(t))
    lhs = float(vals.mean())
    half = 2.576 * float(vals.std(ddof=1)) / math.sqrt(len(vals))
    rhs = 1.0 / mu
    passed = lhs + half <= rhs + 3.0 * half
    return {"lhs": lhs, "rhs": rhs, "ci_halfwidth": half, "passed": passed}


LEMMA_DISTS = [("bernoulli", m) for m in (0.02, 0.05, 0.1, 0.3, 0.5, 0.9)]
LEMMA_DISTS += [("uniform",), ("beta", 2, 5)]
LEMMA_SAMPLE_SIZES = (16, 64, 256, 1024)


def lemma_suite(n_trials=100000):
    """All 32 (distribution, t) combinations of the inverse-mean bound."""
    out = []
    for i, dist in enumerate(LEMMA_DISTS):
        for j, t in enumerate(LEMMA_SAMPLE_SIZES):
            rng = RngStream(0, 1000 + 10 * i + j)
            res = inverse_mean_bound_check(dist, t, n_trials, rng)
            name = f"inv-mean {dist} t={t}"
            detail = (f"lhs={res['lhs']:.4f} rhs={res['rhs']:.4f} "
                      f"ci={res['ci_halfwidth']:.2e}")
            out.append(CheckResult(name, res["passed"], detail))
    return out


def inverse_moment_tail_sum(k):
    """Exact tail sum; defined for integer k >= 16, must stay <= 2."""
    k = int(k)
    if k < 16:
        raise ValueError(f"tail sum needs k >= 16, got {k}")
    total = 0.0
    for i in range(k // 16, k // 4 + 1):
        gap = 1.0 - 2.0 * math.sqrt((i + 1) / k)
        denom = max(gap, 0.0) + 16.0 / (k + 1)
        total += (i + 1) / denom * math.exp(-i)
    return total


@dataclass
class EpochAudit:
    epoch: int
    freq_true: np.ndarray    # f_e,k = E_nu[s_e(c, k)] / 2, exact
    freq_est: np.ndarray     # learner's estimate for the epoch
    beta: np.ndarray         # (f + gamma) / (fhat + 1.5 gamma)
    conc_ok: bool            # |fhat - f| <= 2 max(sqrt(f conf/L), conf/L)
    proxy_ok: bool           # max_(c,k) accumulated 2 l/(f+gamma) <= L + conf/gamma
    fallback_rounds: int
    rounds: int


class _AuditObserver:
    """Closes an EpochAudit each time the learner advances an epoch.
    round_played, called after every round, hands a loss sample the round
    kept (acc.version moved) to estimate_recorded, then an epoch the round
    started to epoch_started. An epoch's rounds and fallback rounds are how
    far learner.t and learner.fallback_count moved while it was open.
    The exact frequencies read the learner's snapshot table when it
    tabulates the oracle space, else that of a _SnapView over the space.
    The class and method names stay because perfbench/layers.py wraps
    them by name."""

    def __init__(self, env, acc):
        self.records = []
        self._open = None
        self._space = env.known_nu_oracle()
        self._masks = space_masks(self._space, env.active_mask, env.n_arms)
        self._acc = acc  # the learner's accumulator; its class is the loss phi
        self._version = acc.version
        self._epoch = 1  # the learner's epoch after the last round seen

    def _freq_true(self, learner):
        space = self._space
        if learner.context_space is space:
            table = learner.snapshot_table  # the learner tabulated this space
        else:
            table = _SnapView(learner.snapshot_current, space, self._masks).table
        return 0.5 * (space.weights @ table)

    def round_played(self, learner):
        if self._acc.version != self._version:
            self._version = self._acc.version
            self.estimate_recorded(*learner.last_kept)
        if learner.epoch != self._epoch:
            self._epoch = learner.epoch
            self.epoch_started(learner, self._epoch)

    def epoch_started(self, learner, epoch):
        self._close(learner)
        params = learner.params
        f = self._freq_true(learner)
        fhat = learner.freq_estimate
        beta = (f + params.gamma) / (fhat + 1.5 * params.gamma)
        dev = np.abs(fhat - f)
        bound = 2.0 * np.maximum(np.sqrt(f * params.conf / params.epoch_len),
                                 params.conf / params.epoch_len)
        self._open = {
            "epoch": epoch, "freq_true": f, "freq_est": fhat, "beta": beta,
            "conc_ok": bool((dev <= bound).all()),
            "t0": learner.t, "fallbacks0": learner.fallback_count,
            # per arm, the weight 2/(f + gamma) of a kept loss row
            "scales": (2.0 / (f + params.gamma)).tolist(),
            # per arm, the sum of scaled loss rows
            "proxy": np.zeros_like(self._acc.coef),
        }

    def estimate_recorded(self, arm, loss_fn):
        self._open["proxy"][arm] += self._open["scales"][arm] * loss_fn.coef

    def _close(self, learner):
        """Record the open epoch, if any, as ending at learner.t."""
        if self._open is None:
            return
        o, self._open = self._open, None
        limit = learner.params.epoch_len + learner.params.conf / learner.params.gamma
        self.records.append(EpochAudit(
            epoch=o["epoch"], freq_true=o["freq_true"], freq_est=o["freq_est"],
            beta=o["beta"], conc_ok=o["conc_ok"],
            proxy_ok=float(self._acc.upper(o["proxy"]).max()) <= limit,
            fallback_rounds=learner.fallback_count - o["fallbacks0"],
            rounds=learner.t - o["t0"]))


def audit_run(env, params, seed):
    """Run the cross-learner of a run on env under audit; per-epoch records."""
    learner = build_crosslearner(env, params, seed)
    audit = _AuditObserver(env, learner.acc)
    for t in range(env.horizon):
        learner.step(env.context(t), lambda a: env.reveal(t, a))
        audit.round_played(learner)
    audit._close(learner)  # flush the final epoch if the run ended mid-epoch
    return audit.records


def audit_summary(all_records):
    """Aggregate audit records (possibly across runs) into the fractions the
    acceptance gate cares about."""
    n = len(all_records)
    if n == 0:
        raise ValueError("no audited epochs")
    conc = sum(r.conc_ok for r in all_records)
    proxy = sum(r.proxy_ok for r in all_records)
    good = [r for r in all_records if r.conc_ok and r.proxy_ok]
    beta_cells = sum(r.beta.size for r in good)
    beta_ok = sum(int(((r.beta >= BETA_LO) & (r.beta <= BETA_HI)).sum()) for r in good)
    good_rounds = sum(r.rounds for r in good)
    good_fallbacks = sum(r.fallback_rounds for r in good)
    return {
        "epochs": n,
        "conc_fraction": conc / n,
        "proxy_fraction": proxy / n,
        "good_fraction": len(good) / n,
        "beta_in_range_fraction": (beta_ok / beta_cells) if beta_cells else 1.0,
        "fallback_fraction": (good_fallbacks / good_rounds) if good_rounds else 0.0,
    }


def _audit_seed(task):
    """audit_run of one seed of tuned_synthetic_audit, on an AUDIT_ENV env."""
    seed, params, horizon = task
    return audit_run(build_env(AUDIT_ENV, horizon, RngStream(seed, ENV_STREAM)), params, seed)


def tuned_synthetic_audit(n_seeds=100, horizon=16384):
    """Audit of theorem-tuned runs on the AUDIT_ENV suite. The seeds run on
    a process pool of one worker per seed, capped by harness.worker_cap()
    (CROSSLEARN_THREADS, else the usable CPUs; serially under
    CROSSLEARN_THREADS=1); the records are summarised in seed order either
    way."""
    params = tune_parameters(AUDIT_ENV["K"], horizon)
    tasks = [(seed, params, horizon) for seed in range(n_seeds)]
    per_seed = map_tasks(_audit_seed, tasks, n_seeds)
    return audit_summary([r for records in per_seed for r in records])


def run_verify(quick=False, seeds=None, trials=None):
    """CLI entry: PASS/FAIL table over the whole verification suite. The
    audit runs `seeds` seeds (default 100, 10 if quick) at horizon 16384
    (8192 if quick), the lemma checks `trials` trials per cell (default
    100000, 20000 if quick)."""
    seeds = (10 if quick else 100) if seeds is None else seeds
    trials = (20000 if quick else 100000) if trials is None else trials
    checks = []
    checks.extend(lemma_suite(n_trials=trials))

    tail_vals = [inverse_moment_tail_sum(k) for k in range(16, 201)]
    tail_vals += [inverse_moment_tail_sum(1000), inverse_moment_tail_sum(10000)]
    worst = max(tail_vals)
    checks.append(CheckResult(
        "tail-sum k in [16,200] + {1e3,1e4}", worst <= 2.0, f"max={worst:.6f}"))

    horizon = 8192 if quick else 16384
    summary = tuned_synthetic_audit(n_seeds=seeds, horizon=horizon)
    checks.append(CheckResult(
        "audit: good-epoch frequency",
        summary["good_fraction"] >= 0.99,
        f"good={summary['good_fraction']:.4f} over {summary['epochs']} epochs"))
    checks.append(CheckResult(
        "audit: beta in [1/2, 2] on good epochs",
        summary["beta_in_range_fraction"] == 1.0,
        f"fraction={summary['beta_in_range_fraction']:.6f}"))
    checks.append(CheckResult(
        "audit: fallback rarity on good epochs",
        summary["fallback_fraction"] <= 1e-3,
        f"fraction={summary['fallback_fraction']:.2e}"))

    width = max(len(c.name) for c in checks)
    failures = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        failures += not c.passed
        print(f"{c.name:<{width}}  {status}  {c.detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 2
