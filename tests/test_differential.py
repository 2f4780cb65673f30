"""Differential tests: the block-drawn and block-scored code paths, the
softmax reductions, the once-per-round known-nu probe table, the unmasked
s/2 fallback test and the lazily built tabular loss rows against reference
copies kept here. Every comparison is exact (==): the new paths do the same
float operations in the same order."""

import dataclasses
import itertools

import numpy as np
import pytest

from crosslearn import learner as learner_module
from crosslearn.accumulator import (
    AFFINE,
    CONSTANT,
    TABULAR,
    AffineLoss,
    ConstantLoss,
    TabularLoss,
    make_accumulator,
    snapshot,
)
from crosslearn.baselines import KnownNuLearner, KnownNuOracle, known_nu_rate
from crosslearn.envs import (
    AVAILABILITY_BLOCK,
    SCORE_BLOCK,
    AuctionEnv,
    RegretTracker,
    SleepingEnv,
    TabularEnv,
    hindsight_regret,
)
from crosslearn.harness import (
    ALGO_STREAMS,
    ENV_STREAM,
    build_algo,
    build_env,
    checkpoint_schedule,
    run_single,
)
from crosslearn.learner import CrossLearner, calibrated_params
from crosslearn.simplex import (
    UNIFORM_BLOCK,
    BlockUniforms,
    RngStream,
    SimplexError,
    ftrl_weights,
    ftrl_weights_batch,
    sample_index,
)


class PerRoundRegretTracker:
    """Per-round regret accounting: one loss_scalar and one loss_column per
    round, groups accumulated row by row."""

    def __init__(self, env):
        self.env = env
        self.played = 0.0
        self._mode = env.grouping
        if self._mode == "context" and env.kind == "tabular":
            self._table = np.zeros((env.n_contexts, env.n_arms))
            self._visited = np.zeros(env.n_contexts, dtype=bool)
        elif self._mode == "round":
            self._best = 0.0
        else:
            self._groups = {}

    def update(self, t, context, arm):
        env = self.env
        self.played += env.loss_scalar(t, context, arm)
        col = env.loss_column(t, context)
        if self._mode == "round":
            mask = env.active_mask(context)
            self._best += float(col.min() if mask is None else col[mask].min())
        elif self._mode == "context" and env.kind == "tabular":
            self._table[context] += col
            self._visited[context] = True
        else:
            row = self._groups.get(context)
            if row is None:
                row = np.zeros(env.n_arms)
                self._groups[context] = row
            row += col

    def comparator(self):
        env = self.env
        if self._mode == "round":
            return self._best
        if self._mode == "context" and env.kind == "tabular":
            total = 0.0
            for c in np.flatnonzero(self._visited):
                mask = env.active_mask(c)
                row = self._table[c]
                total += float(row.min() if mask is None else row[mask].min())
            return total
        total = 0.0
        for context, row in self._groups.items():
            mask = env.active_mask(context)
            total += float(row.min() if mask is None else row[mask].min())
        return total

    def regret(self):
        return self.played - self.comparator()


HORIZON = 3 * SCORE_BLOCK + 77  # not a power of two: the last checkpoint is T


def _tabular(active):
    rows = None
    if active:
        rows = np.random.default_rng(1).random((5, 4)) < 0.6
        rows[:, 2] = True
    return TabularEnv.synthetic(5, 4, HORIZON, RngStream(3, 0), active=rows)


ENVS = {
    "tabular": lambda: _tabular(False),
    "tabular_active": lambda: _tabular(True),
    "tabular_tensor": lambda: TabularEnv.from_tensor(
        np.random.default_rng(2).random((HORIZON, 3, 6)), np.ones(6) / 6,
        RngStream(4, 0)),
    "auction_atoms": lambda: AuctionEnv.generate(
        HORIZON, RngStream(5, 0),
        values={"kind": "discrete", "atoms": [0.1, 0.35, 0.6, 0.9],
                "probs": [1, 2, 3, 4]}),
    "auction_continuous": lambda: AuctionEnv.generate(HORIZON, RngStream(6, 0)),
    "sleeping_bernoulli": lambda: SleepingEnv.generate(
        HORIZON, 5, RngStream(7, 0),
        availability={"kind": "bernoulli", "probs": [0.2, 0.5, 0.3, 0.7, 0.4]}),
    "sleeping_categorical": lambda: SleepingEnv.generate(
        HORIZON, 4, RngStream(8, 0),
        availability={"kind": "categorical", "subsets": [[0, 1], [2], [1, 2, 3]],
                      "probs": [0.3, 0.2, 0.5]}),
}


def _played(env, seed):
    """Contexts of the env and arms drawn uniformly from each active set."""
    gen = np.random.default_rng(seed)
    contexts, arms = [], []
    for t in range(env.horizon):
        c = env.context(t)
        mask = env.active_mask(c)
        allowed = np.arange(env.n_arms) if mask is None else np.flatnonzero(mask)
        contexts.append(c)
        arms.append(int(allowed[gen.integers(allowed.size)]))
    return contexts, arms


@pytest.mark.parametrize("name", sorted(ENVS))
def test_block_scorer_matches_per_round_tracker(name):
    env = ENVS[name]()
    assert env.grouping == {"auction_atoms": "value",
                            "auction_continuous": "round"}.get(name, "context")
    contexts, arms = _played(env, 11)
    cps = checkpoint_schedule(env.horizon)
    ref = PerRoundRegretTracker(env)
    want = []
    for t, (c, a) in enumerate(zip(contexts, arms)):
        ref.update(t, c, a)
        if t + 1 in cps:
            want.append(ref.regret())
    chunked = RegretTracker(env)
    got, t = [], 0
    sizes = itertools.cycle([1, 7, SCORE_BLOCK + 3])  # blocking must not matter
    for cp in cps:
        while t < cp:
            b = min(cp, t + next(sizes))
            chunked.score(range(t, b), contexts[t:b], arms[t:b])
            t = b
        got.append(chunked.regret())
    assert got == want
    streaming = RegretTracker(env)
    got = []
    for t, (c, a) in enumerate(zip(contexts, arms)):
        streaming.update(t, c, a)
        if t + 1 in cps:
            got.append(streaming.regret())
    assert got == want
    assert hindsight_regret(list(zip(contexts, arms)), env) == want[-1]


SPECS = {
    "tabular": {"kind": "tabular_synthetic", "C": 5, "K": 4},
    "auction_continuous": {"kind": "auction"},
    "sleeping": {"kind": "sleeping", "K": 4},
}


@pytest.mark.parametrize("spec", sorted(SPECS))
@pytest.mark.parametrize("algo_name", sorted(ALGO_STREAMS))
def test_run_single_matches_per_round_replay(spec, algo_name):
    overrides = "calibrated" if algo_name == "crosslearn" else None
    res = run_single(SPECS[spec], algo_name, HORIZON, 2, overrides)
    env = build_env(SPECS[spec], HORIZON, RngStream(2, ENV_STREAM))
    algo = build_algo(algo_name, env, HORIZON, 2, overrides)
    ref = PerRoundRegretTracker(env)
    want = []
    for t in range(HORIZON):
        context = env.context(t)
        ref.update(t, context, algo.step(context, lambda a: env.reveal(t, a)))
        if t + 1 in checkpoint_schedule(HORIZON):
            want.append((t + 1, ref.regret() * env.regret_scale))
    assert res.checkpoints == want


def test_uniform_view_matches_scalar_draws():
    n = 2 * UNIFORM_BLOCK + 17  # crosses two block boundaries
    view = BlockUniforms(RngStream(5, 1).gen)
    gen = RngStream(5, 1).gen
    assert [view.random() for _ in range(n)] == [gen.random() for _ in range(n)]


def _searchsorted_sample_index(weights, gen):
    cs = np.cumsum(weights)
    u = gen.random() * cs[-1]
    k = int(np.searchsorted(cs, u, side="right"))
    if k >= len(weights):
        k = len(weights) - 1
    while weights[k] == 0.0:
        k -= 1
    return k


def test_sample_index_matches_searchsorted_version():
    rows = np.random.default_rng(3).random((2000, 6))
    rows[rows < 0.3] = 0.0
    rows[:, 4] += 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    gen_a, gen_b = np.random.default_rng(4), np.random.default_rng(4)
    view = BlockUniforms(np.random.default_rng(4))
    for w in rows:
        k = _searchsorted_sample_index(w, gen_a)
        assert sample_index(w, gen_b) == k
        assert sample_index(w, view) == k


def _per_round_sleeping(horizon, n_arms, seed, probs):
    """Rejection loop per round, then the default means_noise losses."""
    gen = RngStream(seed, 0).gen
    probs = np.asarray(probs, dtype=float)
    subsets = np.empty(horizon, dtype=np.int64)
    bits = 1 << np.arange(n_arms)
    for t in range(horizon):
        while True:
            draw = gen.random(n_arms) < probs
            if draw.any():
                break
        subsets[t] = int(bits[draw].sum())
    means = np.linspace(0.15, 0.85, n_arms)
    table = np.clip(means[None, :] + 0.1 * gen.uniform(-1, 1, (horizon, n_arms)),
                    0.0, 1.0)
    return subsets, table


@pytest.mark.parametrize("horizon, probs", [
    (2000, [0.05, 0.05, 0.05, 0.05]),
    (AVAILABILITY_BLOCK + 500, [0.05, 0.02, 0.3]),
])
def test_block_availability_matches_rejection_loop(horizon, probs):
    env = SleepingEnv.generate(horizon, len(probs), RngStream(9, 0),
                               availability={"kind": "bernoulli", "probs": probs})
    subsets, losses = _per_round_sleeping(horizon, len(probs), 9, probs)
    assert np.array_equal(env.subsets, subsets)
    assert np.array_equal(env.losses, losses)


# Reference copies of the softmaxes as they were before their reductions
# were called as ufuncs and the batch row max moved to the contiguous axis.
def _ref_ftrl_weights(cum_loss, eta, mask=None):
    z = np.multiply(cum_loss, -eta)
    if mask is None:
        z -= z.max()
        w = np.exp(z)
    else:
        zm = z[mask]
        if zm.size == 0:
            raise SimplexError("active set is empty")
        w = np.zeros(z.shape[0])
        w[mask] = np.exp(zm - zm.max())
    w /= w.sum()
    return w


def _ref_ftrl_weights_batch(cum_loss, eta, masks=None):
    z = np.multiply(cum_loss, -eta)
    if masks is None:
        z -= z.max(axis=1, keepdims=True)
        w = np.exp(z)
    else:
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim == 1:
            masks = np.broadcast_to(masks, z.shape)
        if not masks.any(axis=1).all():
            raise SimplexError("empty active set in batch")
        neg_inf = np.where(masks, z, -np.inf)
        neg_inf -= neg_inf.max(axis=1, keepdims=True)
        w = np.exp(neg_inf, where=masks, out=np.zeros_like(z))
    w /= w.sum(axis=1, keepdims=True)
    return w


def _random_accumulator(kind, gen, n_arms, n_contexts):
    """An accumulator of the kind after a few hundred weighted adds."""
    acc = make_accumulator(kind, n_arms, n_contexts)
    for _ in range(300):
        arm, weight = int(gen.integers(n_arms)), float(gen.uniform(0, 40))
        if kind == TABULAR:
            loss = TabularLoss(gen.random(n_contexts))
        elif kind == AFFINE:
            a = float(gen.random())
            loss = AffineLoss(a, float(gen.uniform(-a, 1 - a)))
        else:
            loss = ConstantLoss(float(gen.random()))
        acc.add(arm, weight, loss)
    return acc


def _random_masks(gen, shape):
    masks = gen.random(shape) < 0.6
    rows = masks.reshape(-1, shape[-1])
    rows[np.arange(rows.shape[0]), gen.integers(shape[-1], size=rows.shape[0])] = True
    return masks


@pytest.mark.parametrize("kind", [TABULAR, AFFINE, CONSTANT])
def test_softmaxes_match_reference_on_every_eval_batch_layout(kind):
    gen = np.random.default_rng(["tabular", "affine", "constant"].index(kind))
    for trial in range(60):
        n_arms, n_contexts = int(gen.integers(2, 24)), int(gen.integers(1, 70))
        acc = _random_accumulator(kind, gen, n_arms, n_contexts)
        contexts = (np.arange(n_contexts) if kind == TABULAR
                    else gen.random(n_contexts))
        eta = float(gen.uniform(1e-3, 1.5))
        for source in (acc, snapshot(acc, eta)):
            cum = source.eval_batch(contexts)
            for masks in (None, _random_masks(gen, (n_arms,)),
                          _random_masks(gen, (n_contexts, n_arms))):
                got = ftrl_weights_batch(cum, eta, masks)
                assert np.array_equal(got, _ref_ftrl_weights_batch(cum, eta, masks))
                for i, context in enumerate(contexts.tolist()):
                    col = source.eval_column(context)
                    mask = masks if masks is None or masks.ndim == 1 else masks[i]
                    row = ftrl_weights(col, eta, mask)
                    assert np.array_equal(row, _ref_ftrl_weights(col, eta, mask))
                    # what the known-nu probe table relies on
                    assert np.array_equal(row, got[i])


def test_batch_rows_match_one_row_softmax_on_a_transposed_input():
    cum = np.random.default_rng(4).random((8, 64)) * 30
    eta = 0.37
    got = ftrl_weights_batch(cum.T, eta)
    for i in range(64):
        assert np.array_equal(got[i], ftrl_weights(cum[:, i], eta))


class _RefKnownNuLearner:
    """KnownNuLearner as it was before the once-per-round probe table: plays
    the softmax at the context, then rebuilds the table for the denominator."""

    def __init__(self, n_arms, accumulator, oracle, eta, rng, active=None):
        self.acc, self.oracle, self.eta = accumulator, oracle, float(eta)
        self._gen = BlockUniforms(rng.gen)
        self._active = active
        self.denominators = []

    def _mask(self, context):
        if self._active is None:
            return None
        if isinstance(self._active, np.ndarray):
            return self._active[context]
        return self._active(context)

    def step(self, context, reveal):
        w = _ref_ftrl_weights(self.acc.eval_column(context), self.eta, self._mask(context))
        arm = sample_index(w, self._gen)
        fn = reveal(arm)
        cum = self.acc.eval_batch(self.oracle.probes)
        table = _ref_ftrl_weights_batch(cum, self.eta, self.oracle.masks)
        denom = max(float(self.oracle.expectation(table)[arm]), 1e-9)
        self.denominators.append(denom)
        self.acc.add(arm, 1.0 / denom, fn)
        return arm


KNOWN_NU_HORIZON = 1500


def _unmasked_oracle(env):
    """The env's finite oracle without its masks: only a context whose
    active set is every arm may be played from the probe table."""
    return KnownNuOracle.finite(env.nu)


KNOWN_NU_CASES = {
    "tabular": ("tabular_synthetic", {"C": 6, "K": 4}, None),
    "tabular_active": ("tabular_synthetic", {"C": 4, "K": 3, "active": [
        [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]}, None),
    "tabular_active_unmasked_oracle": ("tabular_synthetic", {"C": 4, "K": 3, "active": [
        [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]}, _unmasked_oracle),
    "sleeping_bernoulli": ("sleeping", {"K": 5, "availability": {
        "kind": "bernoulli", "probs": [0.2, 0.5, 0.3, 0.7, 0.4]}}, None),
    "sleeping_categorical": ("sleeping", {"K": 4, "availability": {
        "kind": "categorical", "subsets": [[0, 1], [2], [1, 2, 3], [0, 1]],
        "probs": [0.3, 0.2, 0.4, 0.1]}}, None),
    "auction_atoms": ("auction", {"values": {
        "kind": "discrete", "atoms": [0.1, 0.35, 0.6, 0.9], "probs": [1, 2, 3, 4]}}, None),
    "auction_continuous": ("auction", {}, None),
}


@pytest.mark.parametrize("case", sorted(KNOWN_NU_CASES))
def test_known_nu_matches_reference_round_by_round(case):
    kind, fields, make_oracle = KNOWN_NU_CASES[case]
    env = build_env(dict(fields, kind=kind), KNOWN_NU_HORIZON, RngStream(6, ENV_STREAM))
    oracle = env.known_nu_oracle() if make_oracle is None else make_oracle(env)
    active = env.active if env.kind == "tabular" else (
        None if env.kind == "auction" else env.active_mask)

    def learner(cls):
        acc = make_accumulator(env.acc_kind, env.n_arms, getattr(env, "n_contexts", None))
        # 4x the default rate, so the distributions move far from uniform
        return cls(env.n_arms, acc, oracle, 4 * known_nu_rate(env.n_arms, env.horizon),
                   RngStream(6, ALGO_STREAMS["known_nu"]), active=active)

    new, ref = learner(KnownNuLearner), learner(_RefKnownNuLearner)
    weights = []
    add = new.acc.add
    new.acc.add = lambda arm, weight, fn: (weights.append(weight), add(arm, weight, fn))
    arms = set()
    contexts = set()
    for t in range(env.horizon):
        context = env.context(t)
        arm = new.step(context, lambda a: env.reveal(t, a))
        assert arm == ref.step(context, lambda a: env.reveal(t, a)), t
        assert weights[-1] == 1.0 / ref.denominators[-1], t
        arms.add(arm)
        contexts.add(context)
    assert len(arms) == env.n_arms
    assert np.array_equal(new.acc.frozen_state()[0], ref.acc.frozen_state()[0])
    # which contexts were played from a probe-table row
    from_table = {c for c in contexts if c in new._rows}
    assert from_table == {"auction_continuous": set(),
                          # only context 3, whose active set is every arm
                          "tabular_active_unmasked_oracle": {3}}.get(case, contexts)


def _ref_select(p, s, mask=None):
    """select_sampling_distribution with the masked test, as it was."""
    if mask is None:
        ok = bool((p >= 0.5 * s).all())
    else:
        ok = bool((p[mask] >= 0.5 * s[mask]).all())
    return (p, False) if ok else (s, True)


MASKED_SPECS = {
    "tabular_active": KNOWN_NU_CASES["tabular_active"][:2],
    "sleeping_bernoulli": KNOWN_NU_CASES["sleeping_bernoulli"][:2],
    "sleeping_categorical": KNOWN_NU_CASES["sleeping_categorical"][:2],
}


@pytest.mark.parametrize("name", sorted(MASKED_SPECS))
def test_unmasked_fallback_matches_masked_test(name, monkeypatch):
    kind, fields = MASKED_SPECS[name]
    horizon = 6000
    env = build_env(dict(fields, kind=kind), horizon, RngStream(8, ENV_STREAM))
    params = calibrated_params(env.n_arms, horizon)
    mask_now = []
    decisions = []
    select = learner_module.select_sampling_distribution

    def checked(p, s, mask=None):
        assert mask is None
        got = select(p, s)
        want = _ref_select(p, s, mask_now[-1])
        assert got[1] == want[1] and got[0] is want[0]
        assert got == select(p, s, mask_now[-1])
        decisions.append(got[1])
        return got

    monkeypatch.setattr(learner_module, "select_sampling_distribution", checked)
    # a hot rate makes the FTRL state drift from its snapshots, so both
    # branches of the fallback test occur
    hot = dataclasses.replace(params, eta=8 * params.eta)
    active = env.active if env.kind == "tabular" else env.active_mask
    algo = CrossLearner(hot, make_accumulator(env.acc_kind, env.n_arms,
                                              getattr(env, "n_contexts", None)),
                        RngStream(8, ALGO_STREAMS["crosslearn"]), active=active)
    for t in range(horizon):
        context = env.context(t)
        mask_now.append(env.active_mask(context))
        algo.step(context, lambda a: env.reveal(t, a))
    assert True in decisions and False in decisions
    assert algo.fallback_count == sum(decisions)


def test_lazy_tabular_row_matches_eager_row():
    env = TabularEnv.synthetic(7, 4, 400, RngStream(9, 0))
    mu, amp, noise = env._mu, env._amp, env._noise
    for t in range(env.horizon):
        for arm in range(env.n_arms):
            fn = env.reveal(t, arm)
            eager = mu[arm] + amp * noise[t, arm]
            assert np.array_equal(fn.values, eager) and fn.values is fn.values
            for context in range(env.n_contexts):
                value = fn.eval(context)
                assert value == env.loss_scalar(t, context, arm) == float(eager[context])
    # a tensor env still hands out its stored row
    tensor = np.random.default_rng(3).random((50, 3, 4))
    env = TabularEnv.from_tensor(tensor, np.ones(4) / 4, RngStream(1, 0))
    for t in range(50):
        fn = env.reveal(t, 2)
        assert np.array_equal(fn.values, tensor[t, 2])
        assert [fn.eval(c) for c in range(4)] == [env.loss_scalar(t, c, 2) for c in range(4)]
