"""Behavioral tests of the paired-epoch learner: warm-up play, pairing and
role assignment, fallback selection, subsampling, frequency estimation, and
reproducibility."""

import numpy as np
import pytest

from crosslearn import learner as learner_module
from crosslearn.accumulator import (
    TABULAR,
    LinearLoss,
    TabularAccumulator,
    make_accumulator,
)
from crosslearn.learner import (
    CrossLearner,
    OutOfOrderError,
    ParamError,
    bernoulli_param,
    calibrated_params,
    estimate_weight,
    select_sampling_distribution,
    tune_parameters,
    with_overrides,
)
from crosslearn.baselines import KnownNuLearner, PerContextExp3
from crosslearn.simplex import ContextSpace, RngStream


def _small_params(n_arms=3, horizon=400, L=20, eta=0.01, gamma=0.05):
    base = tune_parameters(n_arms, horizon)
    return with_overrides(base, L=L, eta=eta, gamma=gamma, unsafe=True)


def _const_env_step(values):
    fn = LinearLoss(TabularAccumulator, np.asarray(values, dtype=float))
    return lambda arm: fn


def test_select_sampling_distribution():
    s = np.array([0.5, 0.3, 0.2])
    p_ok = np.array([0.4, 0.35, 0.25])
    q, fb = select_sampling_distribution(p_ok, s)
    assert q is p_ok and fb is False
    p_bad = np.array([0.2, 0.5, 0.3])  # 0.2 < 0.25 = s[0]/2
    q, fb = select_sampling_distribution(p_bad, s)
    assert q is s and fb is True
    # exact tie on the boundary counts as no fallback
    p_tie = np.array([0.25, 0.45, 0.3])
    q, fb = select_sampling_distribution(p_tie, s)
    assert q is p_tie and fb is False


def test_bernoulli_param_bounds():
    assert bernoulli_param(0.5, 0.25) == 1.0
    assert bernoulli_param(0.5, 0.5) == 0.5
    assert bernoulli_param(0.0, 0.1) == 0.0
    with pytest.raises(AssertionError):
        bernoulli_param(0.6, 0.25)  # s/(2q) = 1.2: q fails to dominate s/2
    with pytest.raises(ValueError):
        bernoulli_param(0.5, 0.0)


def test_estimate_weight():
    assert estimate_weight(0.25, 0.1) == pytest.approx(2.0 / 0.4, rel=1e-15)


def test_warmup_plays_uniform():
    # during epoch 1 every arm is equally likely regardless of losses
    params = _small_params(n_arms=4, horizon=400, L=200)
    acc = make_accumulator(TABULAR, 4, 2)
    learner = CrossLearner(params, acc, RngStream(0, 1))
    reveal = _const_env_step([0.9, 0.9])
    counts = np.zeros(4)
    for t in range(200):
        arm = learner.step(0, reveal)
        counts[arm] += 1
    assert learner.epoch == 2
    sd = np.sqrt(200 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 50) <= 4 * sd)
    # warm-up never writes to the accumulator
    assert acc.version == 0


def test_roles_partition_rounds(monkeypatch):
    # each pair makes one keep test (its loss round), at the pair's second
    # round, and one frequency sample; warm-up and leftover rounds make none
    params = _small_params(horizon=107, L=20)
    acc = make_accumulator(TABULAR, 3, 2)
    tested = []

    def logged(s_val, q_val):
        tested.append(learner.t)
        return bernoulli_param(s_val, q_val)

    monkeypatch.setattr(learner_module, "bernoulli_param", logged)
    learner = CrossLearner(params, acc, RngStream(3, 1))
    reveal = _const_env_step([0.4, 0.6])
    sums = []
    for t in range(107):
        epoch = learner.epoch
        learner.step(t % 2, reveal)
        if learner.epoch != epoch:
            sums.append(learner.freq_estimate.sum())
    # five full epochs cover rounds 1..100; the leftover 7 rounds follow
    assert tested == list(range(22, 101, 2))
    # the warm-up adds L rows over 2L, a paired epoch L/2 rows over L
    assert len(sums) == 5
    assert np.allclose(sums, 0.5, rtol=0, atol=1e-12)


def test_out_of_order_and_horizon_exhaustion():
    # every learner counts its own rounds: a round index is not an argument
    params = _small_params(horizon=40, L=20)
    acc = make_accumulator(TABULAR, 3, 1)
    learner = CrossLearner(params, acc, RngStream(0, 1))
    reveal = _const_env_step([0.5])
    space = ContextSpace(np.arange(1), weights=[1.0])
    for algo in (learner, KnownNuLearner([make_accumulator(TABULAR, 3, 1)], space, 0.1,
                                         [RngStream(0, 2)]),
                 PerContextExp3(3, RngStream(0, 3))):
        with pytest.raises(TypeError):
            algo.step(0, reveal, t=1)
    assert learner.t == 0
    for t in range(1, 41):
        learner.step(0, reveal)
        assert learner.t == t
    with pytest.raises(OutOfOrderError, match="horizon 40 exhausted"):
        learner.step(0, reveal)


def test_empty_active_set_rejected():
    # a callable's empty set fails when its context is first played; an
    # active set that is not a callable fails when the learner is built
    params = _small_params()
    reveal = _const_env_step([0.5, 0.5])
    full, empty = np.ones(3, dtype=bool), np.zeros(3, dtype=bool)
    learner = CrossLearner(params, make_accumulator(TABULAR, 3, 2), RngStream(0, 1),
                           active=lambda c: full if c == 0 else empty)
    learner.step(0, reveal)
    with pytest.raises(ValueError, match="empty"):
        learner.step(1, reveal)
    matrix = np.array([full, full])
    space = ContextSpace(np.arange(2), weights=[0.5, 0.5])
    for build in (
            lambda: CrossLearner(params, make_accumulator(TABULAR, 3, 2), RngStream(0, 1),
                                 active=matrix),
            lambda: KnownNuLearner([make_accumulator(TABULAR, 3, 2)], space, 0.1,
                                   [RngStream(0, 2)], active=matrix),
            lambda: PerContextExp3(3, RngStream(0, 3), active=matrix)):
        with pytest.raises(ParamError, match="callable"):
            build()


def test_callable_active_set_respected_with_tabular_accumulator():
    # a callable gives no masks for a snapshot table, so no round may play
    # an inactive arm, warm-up included
    mask = np.array([True, False, True])
    learner = CrossLearner(_small_params(), make_accumulator(TABULAR, 3, 2), RngStream(0, 1),
                           active=lambda c: mask)
    reveal = _const_env_step([0.5, 0.5])
    arms = [learner.step(t % 2, reveal) for t in range(400)]
    assert 1 not in arms and {0, 2} <= set(arms)


def test_runs_are_bit_identical():
    params = _small_params(horizon=300, L=30)

    def run():
        acc = make_accumulator(TABULAR, 3, 4)
        learner = CrossLearner(params, acc, RngStream(17, 1))
        gen = np.random.default_rng(5)
        arms = []
        for t in range(300):
            c = int(gen.integers(4))
            vals = gen.random(4)
            arms.append(learner.step(c, lambda arm: LinearLoss(TabularAccumulator, vals)))
        return arms, acc.coef.copy(), learner.fallback_count

    arms1, tab1, fb1 = run()
    arms2, tab2, fb2 = run()
    assert fb1 == fb2
    assert np.array_equal(tab1, tab2)
    assert arms1 == arms2


def test_empty_accumulator_plays_snapshot_exactly():
    # with no adds, p equals the uniform snapshot, so q = p and no fallback
    params = _small_params(horizon=400, L=20)
    acc = make_accumulator(TABULAR, 3, 2)
    learner = CrossLearner(params, acc, RngStream(2, 1))
    reveal = _const_env_step([0.0, 0.0])  # zero loss: estimates never move p
    for t in range(400):
        learner.step(t % 2, reveal)
    assert learner.fallback_count == 0


def test_forced_fallback_counted():
    # an adversarial accumulator state makes p collapse onto one arm while
    # the snapshot is still uniform, forcing q = s
    params = _small_params(n_arms=2, horizon=400, L=20, eta=2.0, gamma=0.05)
    acc = make_accumulator(TABULAR, 2, 1)
    learner = CrossLearner(params, acc, RngStream(4, 1))
    hi = LinearLoss(TabularAccumulator, np.array([1.0]))
    for t in range(1, 41):
        # epoch 1 is warm-up; feed loss only to arm 0 afterwards
        learner.step(0, lambda arm: hi)
    # by epoch 3 the accumulator is heavily tilted and eta is huge
    fb_before = learner.fallback_count
    for t in range(41, 200):
        learner.step(0, lambda arm: hi)
    assert learner.fallback_count > fb_before


def test_observation_probability_matches_half_snapshot():
    """P(A=k and kept) must equal s(c,k)/2 for any dominating p: Monte-Carlo
    over the real selection and subsampling code path."""
    gen = np.random.default_rng(8)
    for trial in range(20):
        K = int(gen.integers(2, 6))
        s = gen.dirichlet(np.ones(K))
        if gen.random() < 0.5:
            p = s.copy()  # q = p branch
        else:
            p = gen.dirichlet(np.ones(K) * 0.3)  # usually triggers fallback
        q, fb = select_sampling_distribution(p, s)
        n = 200_000
        arms = gen.choice(K, size=n, p=q)
        probs = np.array([bernoulli_param(s[k], q[k]) for k in range(K)])
        kept = gen.random(n) < probs[arms]
        want = s / 2.0
        got = np.bincount(arms[kept], minlength=K) / n
        sd = np.sqrt(want * (1 - want) / n)
        assert np.all(np.abs(got - want) <= 4 * sd + 1e-12)


def test_frequency_estimate_unbiased_after_warmup():
    # masked contexts: E[f_hat_2] = E_nu[uniform-over-active(c)] / 2
    K, C, L = 4, 2, 40
    params = _small_params(n_arms=K, horizon=80, L=L)
    active = np.array([[True, True, True, True],
                       [True, True, False, False]])
    nu = np.array([0.5, 0.5])
    want = 0.5 * (nu[0] * np.array([0.25] * 4)
                  + nu[1] * np.array([0.5, 0.5, 0.0, 0.0]))
    reveal = _const_env_step([0.3, 0.7])
    ests = []
    for seed in range(400):
        acc = make_accumulator(TABULAR, K, C)
        learner = CrossLearner(params, acc, RngStream(seed, 1), active=active.__getitem__)
        gen = np.random.default_rng(seed + 10_000)
        for t in range(L):
            learner.step(int(gen.integers(2)), reveal)
        ests.append(learner.freq_estimate)
    mean = np.mean(ests, axis=0)
    sd = np.std(ests, axis=0, ddof=1) / np.sqrt(len(ests))
    assert np.all(np.abs(mean - want) <= 4 * sd + 1e-12)


def test_loss_round_subsampling_feeds_accumulator(monkeypatch):
    params = _small_params(horizon=400, L=20)
    acc = make_accumulator(TABULAR, 3, 2)
    offered = []

    def logged(s_val, q_val):
        offered.append(learner.t)
        return bernoulli_param(s_val, q_val)

    monkeypatch.setattr(learner_module, "bernoulli_param", logged)
    learner = CrossLearner(params, acc, RngStream(6, 1))
    reveal = _const_env_step([0.5, 0.5])
    kept = 0
    for t in range(400):
        last = learner.last_kept
        learner.step(t % 2, reveal)
        kept += learner.last_kept is not last
    # one keep test per pair of epochs 2..20
    assert len(offered) == 190
    assert 0 < acc.version < len(offered), "subsampling never dropped a round (expected about half)"
    assert kept == acc.version


def test_learner_state_shows_epochs_and_kept_samples():
    params = _small_params(horizon=100, L=20)
    acc = make_accumulator(TABULAR, 3, 2)
    learner = CrossLearner(params, acc, RngStream(7, 1))
    losses = [LinearLoss(TabularAccumulator, np.array([0.1 * k, 0.5])) for k in range(3)]
    epochs = [(learner.epoch, learner.t)]
    kept = []
    assert learner.last_kept is None
    for t in range(100):
        version = acc.version
        learner.step(t % 2, losses.__getitem__)
        if acc.version != version:
            k, fn = learner.last_kept
            assert fn is losses[k]
            kept.append(k)
        if learner.epoch != epochs[-1][0]:
            epochs.append((learner.epoch, learner.t))
    assert epochs == [(1, 0), (2, 20), (3, 40), (4, 60), (5, 80), (6, 100)]
    assert 0 < len(kept) == acc.version
    assert set(kept) == {0, 1, 2}


def test_snapshot_two_epoch_lag():
    # the snapshot used in epoch e must equal the FTRL state frozen at the
    # start of the last pair of epoch e-2
    params = _small_params(horizon=200, L=20, eta=0.3)
    acc = make_accumulator(TABULAR, 3, 2)
    learner = CrossLearner(params, acc, RngStream(9, 1))
    reveal = _const_env_step([0.2, 0.8])
    frozen_versions = []
    seen = []
    for t in range(1, 201):
        pos = (t - 1) % 20
        if pos == 18 and t > 20:
            frozen_versions.append(acc.version)
        learner.step(t % 2, reveal)
        if pos == 19:
            seen.append(learner.snapshot_current.version)
    # snapshots observed in epochs 3, 4, ... (recorded at each epoch end):
    # epochs 1 and 2 use the initial state (version 0); epoch e >= 3 uses the
    # state frozen in epoch e-2
    assert seen[0] == 0 and seen[1] == 0
    assert seen[2:] == frozen_versions[:len(seen) - 2]


def test_calibrated_run_learns_best_arm():
    params = calibrated_params(3, 4000)
    acc = make_accumulator(TABULAR, 3, 1)
    learner = CrossLearner(params, acc, RngStream(11, 1))
    vals = {0: 0.1, 1: 0.9, 2: 0.9}
    fn = LinearLoss(TabularAccumulator, np.array([0.0]))
    counts = np.zeros(3)
    for t in range(4000):
        arm = learner.step(0, lambda a: LinearLoss(TabularAccumulator, np.array([vals[a]])))
        if t >= 3000:
            counts[arm] += 1
    assert counts[0] / counts.sum() > 0.9
