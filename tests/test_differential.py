"""Differential tests: the block-drawn and block-scored code paths against
per-round reference copies kept here. Every comparison is exact (==): the
block paths do the same float operations in the same order."""

import itertools

import numpy as np
import pytest

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
from crosslearn.simplex import UNIFORM_BLOCK, BlockUniforms, RngStream, sample_index


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
