import math

import numpy as np
import pytest

from crosslearn import accumulator as accumulator_module
from crosslearn import learner as learner_module
from crosslearn import verify as verify_module
from crosslearn.envs import AuctionEnv, SleepingEnv, TabularEnv
from crosslearn.harness import main
from crosslearn.learner import tune_parameters
from crosslearn.simplex import RngStream
from crosslearn.verify import (
    LEMMA_DISTS,
    LEMMA_SAMPLE_SIZES,
    audit_run,
    audit_summary,
    inverse_mean_bound_check,
    inverse_moment_tail_sum,
    lemma_suite,
)


def tail_sum_reference(k):
    # independent evaluation: reversed index order, exact fsum accumulation
    terms = []
    for i in reversed(range(k // 16, k // 4 + 1)):
        gap = max(0.0, 1.0 - 2.0 * math.sqrt((i + 1) / k))
        terms.append((i + 1) * math.exp(-i) / (gap + 16.0 / (k + 1)))
    return math.fsum(terms)


def test_tail_sum_frozen_value():
    assert inverse_moment_tail_sum(16) == pytest.approx(
        1.2827289597857106, abs=1e-15)


def test_tail_sum_matches_reference():
    for k in [16, 17, 23, 64, 200, 1000, 10000]:
        assert inverse_moment_tail_sum(k) == pytest.approx(
            tail_sum_reference(k), abs=1e-12)


def test_tail_sum_bounded_by_two():
    vals = [inverse_moment_tail_sum(k) for k in range(16, 201)]
    vals += [inverse_moment_tail_sum(k) for k in (1000, 10000)]
    assert max(vals) <= 2.0


def test_tail_sum_domain():
    with pytest.raises(ValueError):
        inverse_moment_tail_sum(15)


def test_inverse_mean_bound_spot_checks():
    res = inverse_mean_bound_check(("bernoulli", 0.5), 64, n_trials=20000,
                                   rng=RngStream(0, 50))
    assert res["passed"] and res["lhs"] <= res["rhs"] + 3 * res["ci_halfwidth"]
    res = inverse_mean_bound_check(("uniform",), 16, n_trials=20000,
                                   rng=RngStream(0, 51))
    assert res["passed"]
    with pytest.raises(ValueError):
        inverse_mean_bound_check(("bernoulli", 0.0), 16)
    with pytest.raises(ValueError):
        inverse_mean_bound_check(("cauchy",), 16)


def test_lemma_suite_layout():
    results = lemma_suite(n_trials=5000, seed=0)
    assert len(results) == len(LEMMA_DISTS) * len(LEMMA_SAMPLE_SIZES) == 32
    assert all(r.passed for r in results)


def test_degenerate_context_audit():
    # a single context makes the frequency estimator exact: the estimate is
    # s(c0)/2 summed over exactly L/2 pairs, so every epoch concentrates and
    # beta = (f + gamma)/(f + 1.5 gamma) lies in (2/3, 1]
    env = TabularEnv.synthetic(1, 4, 4096, RngStream(3, 0), gap=0.5, noise=0.1)
    params = tune_parameters(4, 4096)
    records = audit_run(env, params, seed=3)
    assert len(records) >= 2
    for rec in records:
        assert rec.conc_ok
        assert np.allclose(rec.freq_est, rec.freq_true, atol=1e-12)
        assert np.all(rec.beta > 2.0 / 3.0 - 1e-12)
        assert np.all(rec.beta <= 1.0 + 1e-12)


def test_tuned_audit_mostly_good():
    params = tune_parameters(4, 8192)
    records = []
    for seed in range(5):
        env = TabularEnv.synthetic(8, 4, 8192, RngStream(seed, 0))
        records.extend(audit_run(env, params, seed))
    summary = audit_summary(records)
    assert summary["epochs"] >= 30
    assert summary["good_fraction"] >= 0.99
    assert summary["beta_in_range_fraction"] == 1.0
    assert summary["fallback_fraction"] <= 1e-3


def test_audit_affine_and_constant_paths():
    env = AuctionEnv.generate(512, RngStream(0, 0))
    records = audit_run(env, tune_parameters(env.n_arms, 512), seed=0)
    assert records and all(r.rounds > 0 for r in records)
    env = SleepingEnv.generate(512, 3, RngStream(0, 0))
    records = audit_run(env, tune_parameters(3, 512), seed=0)
    assert records and all(r.beta.shape == (3,) for r in records)


@pytest.mark.parametrize("make_env, tables", [
    (lambda: TabularEnv.synthetic(8, 4, 4096, RngStream(2, 0)), True),
    (lambda: SleepingEnv.generate(4096, 3, RngStream(2, 0)), True),
    (lambda: AuctionEnv.generate(4096, RngStream(2, 0)), False),
], ids=["tabular", "sleeping", "continuous_auction"])
def test_audit_reads_the_snapshot_table_the_learner_holds(monkeypatch, make_env, tables):
    # over a finite space the true frequencies come from each snapshot's
    # table, so every batched softmax is a snapshot rebuild; without a
    # space the audit tabulates its probes once per audited epoch
    env = make_env()
    batches, views = [], []
    batch, view = accumulator_module.ftrl_weights_batch, learner_module._SnapView.__init__
    monkeypatch.setattr(accumulator_module, "ftrl_weights_batch",
                        lambda *a: batches.append(1) or batch(*a))
    monkeypatch.setattr(learner_module._SnapView, "__init__",
                        lambda self, *a: views.append(1) or view(self, *a))
    records = audit_run(env, tune_parameters(env.n_arms, 4096), seed=2)
    assert len(records) >= 2
    assert len(batches) == (len(views) if tables else len(records))


def test_audit_summary_arithmetic():
    env = TabularEnv.synthetic(2, 3, 2048, RngStream(1, 0))
    records = audit_run(env, tune_parameters(3, 2048), seed=1)
    summary = audit_summary(records)
    assert summary["epochs"] == len(records)
    n_good = sum(r.conc_ok and r.proxy_ok for r in records)
    assert summary["good_fraction"] == pytest.approx(n_good / len(records))
    with pytest.raises(ValueError):
        audit_summary([])


def _records_key(records):
    return [(r.epoch, r.freq_true.tobytes(), r.freq_est.tobytes(), r.beta.tobytes(),
             r.conc_ok, r.proxy_ok, r.fallback_rounds, r.rounds) for r in records]


def test_tuned_audit_runs_its_seeds_on_a_pool_in_seed_order(monkeypatch):
    calls = []
    pooled = verify_module.map_tasks

    def recording(fn, tasks, workers):
        calls.append(workers)
        return pooled(fn, tasks, workers)

    monkeypatch.setattr(verify_module, "map_tasks", recording)
    monkeypatch.setenv("CROSSLEARN_THREADS", "2")
    shape = dict(n_contexts=8, n_arms=4, horizon=1024)
    summary = verify_module.tuned_synthetic_audit(n_seeds=3, **shape)
    assert calls == [3]  # one worker per seed, before the cap of 2
    params = tune_parameters(4, 1024)
    serial = [audit_run(TabularEnv.synthetic(8, 4, 1024, RngStream(seed, 0)), params, seed)
              for seed in range(3)]
    tasks = [(seed, params, 8, 4, 1024, 0.7, 0.15) for seed in range(3)]
    assert [_records_key(r) for r in pooled(verify_module._audit_seed, tasks, 2)] == \
        [_records_key(r) for r in serial]
    assert summary == audit_summary([r for records in serial for r in records])


@pytest.mark.parametrize("args", [["--seeds", "0"], ["--trials", "-1"], ["--trials", "1"]],
                         ids=["no_seeds", "negative_trials", "one_trial"])
def test_cli_verify_rejects_counts_it_cannot_use(capsys, args):
    # no seed leaves no audited epoch; one trial has no standard deviation
    with pytest.raises(SystemExit) as exc:
        main(["verify", *args])
    assert exc.value.code == 2
    assert "must be an integer >= " in capsys.readouterr().err


@pytest.mark.parametrize("args, want", [
    ([], (100, 16384, 100000)),
    (["--quick"], (10, 8192, 20000)),
    (["--quick", "--seeds", "3"], (3, 8192, 20000)),
    (["--quick", "--trials", "50"], (10, 8192, 50)),
    (["--seeds", "4", "--trials", "60"], (4, 16384, 60)),
], ids=["full", "quick", "quick_seeds", "quick_trials", "counts"])
def test_cli_verify_quick_sets_only_the_counts_not_given(monkeypatch, capsys, args, want):
    got = []

    def audit(n_seeds, horizon):
        got.extend((n_seeds, horizon))
        return {"epochs": 1, "good_fraction": 1.0, "beta_in_range_fraction": 1.0,
                "fallback_fraction": 0.0}

    def lemmas(n_trials):
        got.append(n_trials)
        return []

    monkeypatch.setattr(verify_module, "tuned_synthetic_audit", audit)
    monkeypatch.setattr(verify_module, "lemma_suite", lemmas)
    assert main(["verify", *args]) == 0
    assert (got[1], got[2], got[0]) == want
    assert "checks passed" in capsys.readouterr().out
