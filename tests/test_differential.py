"""Differential tests: the block-drawn and block-scored code paths, the
softmax reductions, the known-nu probe table, the unmasked s/2 fallback
test, the lazily built tabular loss rows, the linear loss rows over a
feature map (accumulators, snapshots, losses and the audit) against
reference copies kept here, and the snapshot tables over finite context
spaces against rows computed per lookup. Every comparison is exact (==):
the new paths do the same float operations in the same order."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from crosslearn import learner as learner_module
from crosslearn import verify as verify_module
from crosslearn.accumulator import (
    AFFINE,
    CONSTANT,
    TABULAR,
    AccumulatorError,
    AffineAccumulator,
    ConstantAccumulator,
    LinearLoss,
    TabularAccumulator,
    make_accumulator,
    snapshot,
)
from crosslearn.baselines import KnownNuLearner, PerContextExp3, known_nu_rate
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
from crosslearn.learner import (TABLE_ROWS_PER_ROUND, CrossLearner, ParamError,
                                calibrated_params, with_overrides)
from crosslearn.simplex import (
    UNIFORM_BLOCK,
    BlockUniforms,
    ContextSpace,
    RngStream,
    SimplexError,
    batch_index,
    ftrl_weights,
    ftrl_weights_batch,
    sample_index,
    space_masks,
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
    assert env.grouping == ("round" if name == "auction_continuous" else "context")
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
    algo = build_algo(algo_name, env, 2, overrides)
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
        if not masks.any(axis=1).all():
            raise SimplexError("empty active set in batch")
        neg_inf = np.where(masks, z, -np.inf)
        neg_inf -= neg_inf.max(axis=1, keepdims=True)
        w = np.exp(neg_inf, where=masks, out=np.zeros_like(z))
    w /= w.sum(axis=1, keepdims=True)
    return w


def _exponents(cum_loss, eta, masks=None):
    """The exponents -eta * cum_loss in cum_loss's own layout, -inf off
    the masks: what ftrl_weights_batch takes."""
    z = np.multiply(cum_loss, -eta)
    if masks is not None:
        np.copyto(z, -np.inf, where=~np.asarray(masks, dtype=bool))
    return z


def _ref_masks(contexts, active, n_arms):
    """The (n, K) active-set rows active(c) at the contexts, every arm for
    a None mask; None when there is no active function or it gives None
    everywhere. Built here, apart from the package's own helper."""
    if active is None:
        return None
    rows = [active(c) for c in contexts]
    if all(m is None for m in rows):
        return None
    return np.array([np.ones(n_arms, dtype=bool) if m is None else m for m in rows])


def _random_accumulator(kind, gen, n_arms, n_contexts):
    """An accumulator of the kind after a few hundred weighted adds."""
    acc = make_accumulator(kind, n_arms, n_contexts)
    for _ in range(300):
        arm, weight = int(gen.integers(n_arms)), float(gen.uniform(0, 40))
        if kind == TABULAR:
            loss = LinearLoss(TabularAccumulator, gen.random(n_contexts))
        elif kind == AFFINE:
            a = float(gen.random())
            loss = LinearLoss(AffineAccumulator, [a, float(gen.uniform(-a, 1 - a))])
        else:
            loss = LinearLoss(ConstantAccumulator, [float(gen.random())])
        acc.add(arm, weight, loss)
    return acc


def _random_masks(gen, shape):
    masks = gen.random(shape) < 0.6
    rows = masks.reshape(-1, shape[-1])
    rows[np.arange(rows.shape[0]), gen.integers(shape[-1], size=rows.shape[0])] = True
    return masks


def _batch_layouts(source, contexts):
    """The (n, K) inputs a batch over `contexts` can take: the eval_batch
    result as given and as a C- and an F-ordered copy, plus, for context
    ids, the view read through their batch_index."""
    cum = source.eval_batch(contexts)
    out = [cum, np.ascontiguousarray(cum), np.asfortranarray(cum)]
    index = batch_index(contexts)
    if isinstance(index, slice):
        view = source.eval_batch(index)
        assert np.shares_memory(view, source.coef) and view.flags.f_contiguous
        assert np.array_equal(view, cum)
        out.append(view)
    return out


@pytest.mark.parametrize("kind", [TABULAR, AFFINE, CONSTANT])
def test_softmaxes_match_reference_on_every_eval_batch_layout(kind):
    gen = np.random.default_rng(["tabular", "affine", "constant"].index(kind))
    wide = 0
    for trial in range(60):
        n_arms, n_contexts = int(gen.integers(2, 24)), int(gen.integers(1, 70))
        # from 8 arms up a column-wise sum adds in another order than the row sum
        wide += n_arms >= 8
        acc = _random_accumulator(kind, gen, n_arms, n_contexts)
        contexts = (np.arange(n_contexts) if kind == TABULAR
                    else gen.random(n_contexts))
        eta = float(gen.uniform(1e-3, 1.5))
        for source in (acc, snapshot(acc, eta)):
            for masks in (None, _random_masks(gen, (n_contexts, n_arms))):
                cols = [source.eval_column(c) for c in contexts.tolist()]
                rows = [None if masks is None else masks[i] for i in range(n_contexts)]
                for cum in _batch_layouts(source, contexts):
                    z = _exponents(cum, eta, masks)
                    got = ftrl_weights_batch(z)
                    assert got.flags.c_contiguous
                    assert np.array_equal(got, _ref_ftrl_weights_batch(
                        np.ascontiguousarray(cum), eta, masks))
                    for i, (col, mask) in enumerate(zip(cols, rows)):
                        row = ftrl_weights(np.multiply(col, -eta), mask)
                        assert np.array_equal(row, _ref_ftrl_weights(col, eta, mask))
                        # what the known-nu probe table relies on
                        assert np.array_equal(row, got[i])
    assert wide >= 10


def test_batch_rows_match_one_row_softmax_on_a_transposed_input():
    cum = np.random.default_rng(4).random((8, 64)) * 30
    eta = 0.37
    got = ftrl_weights_batch(np.multiply(cum, -eta).T)
    for i in range(64):
        assert np.array_equal(got[i], ftrl_weights(np.multiply(cum[:, i], -eta)))


@pytest.mark.parametrize("n_arms", [2, 7, 8, 9, 16, 17, 64, 127, 128, 129, 300])
def test_one_row_list_has_the_bits_of_the_batch_row(n_arms):
    """ftrl_weights sums its list on Python floats in numpy's pairwise
    order: each branch of that order, and each edge between them, gives
    the bits of the row sums of ftrl_weights_batch, masked or not, in the
    (n, K) layout and in the accumulator's transposed (K, n) one."""
    gen = np.random.default_rng(n_arms)
    n_rows = 12
    # losses spread wide enough that many terms are far below the maximum
    coef = gen.exponential(1.0, (n_arms, n_rows)) * gen.uniform(0.1, 40.0, (n_arms, 1))
    eta = 0.83
    masks = _random_masks(gen, (n_rows, n_arms))
    for cum in (coef.T, np.ascontiguousarray(coef.T)):
        for rows_masks in (None, masks):
            got = ftrl_weights_batch(_exponents(cum, eta, rows_masks))
            for i in range(n_rows):
                mask = None if rows_masks is None else rows_masks[i]
                z = np.multiply(cum[i], -eta)
                row = ftrl_weights(z, mask)
                assert type(row) is list and len(row) == n_arms
                assert np.asarray(row).tobytes() == got[i].tobytes(), (i, mask is None)


class _RefKnownNuLearner:
    """KnownNuLearner as it was before the once-per-round probe table: plays
    the softmax at the context, then rebuilds the table for the denominator."""

    def __init__(self, accumulator, space, eta, rng, active=None):
        self.acc, self.space, self.eta = accumulator, space, float(eta)
        self._gen = BlockUniforms(rng.gen)
        self._active = active
        self._masks = _ref_masks(space.contexts.tolist(), active, accumulator.n_arms)
        self.denominators = []

    def _mask(self, context):
        return None if self._active is None else self._active(context)

    def step(self, context, reveal):
        w = _ref_ftrl_weights(self.acc.eval_column(context), self.eta, self._mask(context))
        arm = sample_index(w, self._gen)
        fn = reveal(arm)
        # the C-ordered (n, K) layout the reference sums its rows in
        cum = np.ascontiguousarray(self.acc.eval_batch(self.space.contexts))
        table = _ref_ftrl_weights_batch(cum, self.eta, self._masks)
        denom = max(float((self.space.weights @ table)[arm]), 1e-9)
        self.denominators.append(denom)
        self.acc.add(arm, 1.0 / denom, fn)
        return arm


KNOWN_NU_HORIZON = 1500


KNOWN_NU_CASES = {
    "tabular": ("tabular_synthetic", {"C": 6, "K": 4}),
    "tabular_active": ("tabular_synthetic", {"C": 4, "K": 3, "active": [
        [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]}),
    "sleeping_bernoulli": ("sleeping", {"K": 5, "availability": {
        "kind": "bernoulli", "probs": [0.2, 0.5, 0.3, 0.7, 0.4]}}),
    "sleeping_categorical": ("sleeping", {"K": 4, "availability": {
        "kind": "categorical", "subsets": [[0, 1], [2], [1, 2, 3], [0, 1]],
        "probs": [0.3, 0.2, 0.4, 0.1]}}),
    "auction_atoms": ("auction", {"values": {
        "kind": "discrete", "atoms": [0.1, 0.35, 0.6, 0.9], "probs": [1, 2, 3, 4]}}),
    "auction_continuous": ("auction", {}),
}


@pytest.mark.parametrize("case", sorted(KNOWN_NU_CASES))
def test_known_nu_matches_reference_round_by_round(case):
    kind, fields = KNOWN_NU_CASES[case]
    env = build_env(dict(fields, kind=kind), KNOWN_NU_HORIZON, RngStream(6, ENV_STREAM))
    space = env.known_nu_oracle()
    # 4x the default rate, so the distributions move far from uniform
    eta = 4 * known_nu_rate(env.n_arms, env.horizon)
    acc, _, rng, active = _known_nu_parts(env, 6)
    new = KnownNuLearner([acc], [space], eta, [rng], active=[active])
    ref_acc, _, ref_rng, _ = _known_nu_parts(env, 6)
    ref = _RefKnownNuLearner(ref_acc, space, eta, ref_rng, active=active)
    weights = []
    add = acc.add
    acc.add = lambda arm, weight, fn: (weights.append(weight), add(arm, weight, fn))
    # the probe table follows the learner's own adds: one full evaluation per run
    batches = []
    eval_batch = acc.eval_batch
    acc.eval_batch = lambda contexts: batches.append(1) or eval_batch(contexts)
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
    assert np.array_equal(acc.coef, ref.acc.coef)
    assert len(batches) == 1
    # which contexts were played from a probe-table row
    from_table = {c for c in contexts if space.ids or c in space.rows}
    assert from_table == (set() if case == "auction_continuous" else contexts)


def test_known_nu_rejects_a_space_without_weights():
    kind, fields = KNOWN_NU_CASES["tabular_active"]
    env = build_env(dict(fields, kind=kind), KNOWN_NU_HORIZON, RngStream(6, ENV_STREAM))
    space = env.context_space
    acc = make_accumulator(env.acc_kind, env.n_arms, env.n_contexts)
    with pytest.raises(ParamError, match="weights"):
        KnownNuLearner([acc], [ContextSpace(space.contexts)], 0.1, [RngStream(6, 2)],
                       active=[env.active_mask])
    KnownNuLearner([acc], [space], 0.1, [RngStream(6, 2)], active=[env.active_mask])


LOCKSTEP_SEEDS = [6, 11, 17]


def _known_nu_parts(env, seed):
    """A fresh accumulator, the oracle space, the learner's stream and the
    active sets of one known_nu run."""
    acc = make_accumulator(env.acc_kind, env.n_arms, getattr(env, "n_contexts", None))
    return acc, env.known_nu_oracle(), RngStream(seed, ALGO_STREAMS["known_nu"]), env.active_mask


@pytest.mark.parametrize("n_seeds", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(KNOWN_NU_CASES))
def test_lockstep_known_nu_matches_reference_per_seed(case, n_seeds):
    # R seeds stepped in lockstep by one learner with a seed axis: each
    # seed's arm and denominator every round, and its final sums, are those
    # of the reference learner run on that seed alone
    kind, fields = KNOWN_NU_CASES[case]
    seeds = LOCKSTEP_SEEDS[:n_seeds]
    envs = [build_env(dict(fields, kind=kind), KNOWN_NU_HORIZON, RngStream(s, ENV_STREAM))
            for s in seeds]
    eta = 4 * known_nu_rate(envs[0].n_arms, envs[0].horizon)
    accs, spaces, rngs, actives = (list(x) for x in zip(*map(_known_nu_parts, envs, seeds)))
    weights = [[] for _ in seeds]
    for acc, log in zip(accs, weights):
        acc.add = lambda arm, weight, fn, add=acc.add, log=log: (log.append(weight),
                                                                 add(arm, weight, fn))
    new = KnownNuLearner(accs, spaces, eta, rngs, active=actives)
    refs = [_RefKnownNuLearner(acc, space, eta, rng, active=active)
            for acc, space, rng, active in map(_known_nu_parts, envs, seeds)]
    assert new.probe_table().shape == (n_seeds, len(spaces[0]), envs[0].n_arms)
    for t in range(KNOWN_NU_HORIZON):
        for env, ref, log in zip(envs, refs, weights):
            context = env.context(t)
            arm = new.step(context, lambda a: env.reveal(t, a))
            assert arm == ref.step(context, lambda a: env.reveal(t, a)), (t, env)
            assert log[-1] == 1.0 / ref.denominators[-1], t
    for acc, ref in zip(accs, refs):
        assert acc.coef.tobytes() == ref.acc.coef.tobytes()


def test_lockstep_known_nu_refuses_seeds_that_differ():
    # one stacked table serves every seed, so the seeds must share the
    # space, its weights, the masks and the number of arms
    def build(spec, seed):
        return build_env(spec, 64, RngStream(seed, ENV_STREAM))

    def learner(envs):
        parts = [list(x) for x in zip(*map(_known_nu_parts, envs, range(len(envs))))]
        return KnownNuLearner(parts[0], parts[1], 0.1, parts[2], active=parts[3])

    kind, fields = KNOWN_NU_CASES["tabular_active"]
    spec = dict(fields, kind=kind)
    learner([build(spec, 0), build(spec, 1)])
    other_nu = dict(spec, nu=[0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ParamError, match="seeds' context spaces differ"):
        learner([build(spec, 0), build(other_nu, 1)])
    with pytest.raises(ParamError, match="seeds' context spaces differ"):
        learner([build(spec, 0), build(dict(spec, C=5, active=None), 1)])
    other_active = dict(spec, active=[[1, 1, 1]] * 4)
    with pytest.raises(ParamError, match="seeds' active sets differ"):
        learner([build(spec, 0), build(other_active, 1)])
    with pytest.raises(ParamError, match="seeds' active sets differ"):
        learner([build(spec, 0), build(dict(spec, active=None), 1)])
    with pytest.raises(ParamError, match="number of arms"):
        learner([build(spec, 0), build(dict(spec, K=4, active=None), 1)])
    env = build(spec, 0)
    acc, space, rng, active = _known_nu_parts(env, 0)
    with pytest.raises(ParamError, match="one accumulator, space, stream"):
        KnownNuLearner([acc, acc], [space], 0.1, [rng, rng], active=[active, active])
    # a part that is not a list of seeds, next to ones that are
    for parts in (([acc], [space], [rng], active), ([acc], space, [rng], [active]),
                  ([acc], [space], rng, [active]), (acc, [space], [rng], [active]),
                  (acc, [space], [rng], None)):
        with pytest.raises(ParamError, match="must be lists, one per seed"):
            KnownNuLearner(parts[0], parts[1], 0.1, parts[2], active=parts[3])


class _RefPerContextExp3:
    """PerContextExp3 as it was: each context's estimates a numpy vector,
    its distribution the array softmax, and a state stored for every
    context whose distribution is read."""

    def __init__(self, n_arms, rng, active=None):
        self.n_arms = int(n_arms)
        self._gen = BlockUniforms(rng.gen)
        self._active = active
        self._states = {}
        self._log_k = math.log(self.n_arms)

    def _play(self, context):
        st = self._states.get(context)
        if st is None:
            st = self._states[context] = [np.zeros(self.n_arms), 0]
        eta = math.sqrt(self._log_k / ((st[1] + 1) * self.n_arms))
        mask = None if self._active is None else self._active(context)
        return st, _ref_ftrl_weights(st[0], eta, mask)

    def distribution(self, context):
        return self._play(context)[1]

    def step(self, context, reveal):
        st, w = self._play(context)
        arm = sample_index(w.tolist(), self._gen)
        fn = reveal(arm)
        st[0][arm] += fn.eval(context) / w[arm]
        st[1] += 1
        return arm


EXP3_HORIZON = 1500

EXP3_CASES = {
    "tabular": ("tabular_synthetic", {"C": 6, "K": 4}),
    "tabular_active": ("tabular_synthetic", {"C": 4, "K": 3, "active": [
        [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]}),
    "sleeping_bernoulli": ("sleeping", {"K": 6, "availability": {
        "kind": "bernoulli", "probs": [0.2, 0.5, 0.3, 0.7, 0.4, 0.6]}}),
    "auction_64_atoms": ("auction", {"values": {
        "kind": "discrete", "atoms": [i / 64 for i in range(64)], "probs": [1] * 64}}),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(EXP3_CASES))
def test_exp3_matches_array_reference(case, seed):
    """Arms, regret checkpoints and distribution bytes of per-context EXP3
    on float lists equal those of the array reference."""
    kind, fields = EXP3_CASES[case]
    spec = dict(fields, kind=kind)
    env = build_env(spec, EXP3_HORIZON, RngStream(seed, ENV_STREAM))
    new = build_algo("exp3_per_context", env, seed, None)
    assert isinstance(new, PerContextExp3)
    ref = _RefPerContextExp3(env.n_arms, RngStream(seed, ALGO_STREAMS["exp3_per_context"]),
                             active=env.active_mask)
    # contexts from the whole run: early checkpoints probe unplayed ones too
    probes = [env.context(t) for t in range(0, EXP3_HORIZON, 37)]
    cps = checkpoint_schedule(EXP3_HORIZON)
    tracker = PerRoundRegretTracker(env)
    want = []
    for t in range(EXP3_HORIZON):
        context = env.context(t)
        arm = new.step(context, lambda a: env.reveal(t, a))
        assert arm == ref.step(context, lambda a: env.reveal(t, a)), t
        tracker.update(t, context, arm)
        if t + 1 in cps:
            want.append((t + 1, tracker.regret() * env.regret_scale))
            for c in probes:
                got = np.asarray(new.distribution(c))
                assert got.tobytes() == ref.distribution(c).tobytes(), (t, c)
    assert run_single(spec, "exp3_per_context", EXP3_HORIZON, seed).checkpoints == want


def _ref_select(p, s, mask):
    """select_sampling_distribution with the masked test, as it was."""
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

    def checked(p, s):
        got = select(p, s)
        # the learner passes lists; the masked test needs arrays
        want = _ref_select(np.array(p), np.array(s), mask_now[-1])
        assert got[1] == want[1] and got[0] is (s if want[1] else p)
        decisions.append(got[1])
        return got

    monkeypatch.setattr(learner_module, "select_sampling_distribution", checked)
    # a hot rate makes the FTRL state drift from its snapshots, so both
    # branches of the fallback test occur
    hot = dataclasses.replace(params, eta=8 * params.eta)
    algo = CrossLearner(hot, make_accumulator(env.acc_kind, env.n_arms,
                                              getattr(env, "n_contexts", None)),
                        RngStream(8, ALGO_STREAMS["crosslearn"]), active=env.active_mask)
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
            assert np.array_equal(fn.coef, eager) and fn.coef is fn.coef
            for context in range(env.n_contexts):
                value = fn.eval(context)
                assert value == env.loss_scalar(t, context, arm) == float(eager[context])
    # a tensor env still hands out its stored row
    tensor = np.random.default_rng(3).random((50, 3, 4))
    env = TabularEnv.from_tensor(tensor, np.ones(4) / 4, RngStream(1, 0))
    for t in range(50):
        fn = env.reveal(t, 2)
        assert np.array_equal(fn.coef, tensor[t, 2])
        assert [fn.eval(c) for c in range(4)] == [env.loss_scalar(t, c, 2) for c in range(4)]


# Reference copies of the three loss classes, the three accumulators, the
# snapshot handle and the audit's proxy arithmetic as they were before a
# loss became one coefficient row over a feature map.
class _RefTabularLoss:
    kind = TABULAR

    def __init__(self, values, validate=True):
        values = np.asarray(values, dtype=float)
        if validate and (values.min() < -1e-9 or values.max() > 1 + 1e-9):
            raise AccumulatorError("tabular loss outside [0, 1]")
        self.values = values

    def eval(self, context):
        return float(self.values[context])


class _RefAffineLoss:
    kind = AFFINE

    def __init__(self, intercept, slope, validate=True):
        if validate:
            lo = min(intercept, intercept + slope)
            hi = max(intercept, intercept + slope)
            if lo < -1e-9 or hi > 1 + 1e-9:
                raise AccumulatorError("affine loss leaves [0, 1] on the unit interval")
        self.intercept = float(intercept)
        self.slope = float(slope)

    def eval(self, context):
        return self.intercept + self.slope * float(context)


class _RefConstantLoss:
    kind = CONSTANT

    def __init__(self, value, validate=True):
        if validate and not -1e-9 <= value <= 1 + 1e-9:
            raise AccumulatorError("constant loss outside [0, 1]")
        self.value = float(value)

    def eval(self, context):
        return self.value


class _RefTabularAccumulator:
    kind = TABULAR

    def __init__(self, n_arms, n_contexts):
        self.n_arms, self.n_contexts = n_arms, n_contexts
        self.table = np.zeros((n_arms, n_contexts))
        self._comp = np.zeros_like(self.table)
        self.version = 0

    def add(self, arm, weight, loss):
        y = weight * loss.values - self._comp[arm]
        t = self.table[arm] + y
        self._comp[arm] = (t - self.table[arm]) - y
        self.table[arm] = t
        self.version += 1

    def eval_column(self, context):
        return self.table[:, context]

    def eval_batch(self, contexts):
        return self.table[:, contexts].T

    def frozen_state(self):
        return (self.table.copy(),)

    def state(self):
        return self.table, self._comp


class _RefAffineAccumulator:
    kind = AFFINE

    def __init__(self, n_arms):
        self.n_arms = n_arms
        self.intercept, self.slope = np.zeros(n_arms), np.zeros(n_arms)
        self._comp_a, self._comp_b = np.zeros(n_arms), np.zeros(n_arms)
        self.version = 0

    def add(self, arm, weight, loss):
        for arr, comp, v in (
            (self.intercept, self._comp_a, weight * loss.intercept),
            (self.slope, self._comp_b, weight * loss.slope),
        ):
            y = v - comp[arm]
            t = arr[arm] + y
            comp[arm] = (t - arr[arm]) - y
            arr[arm] = t
        self.version += 1

    def eval_column(self, context):
        return self.intercept + self.slope * float(context)

    def eval_batch(self, contexts):
        vs = np.asarray(contexts, dtype=float)
        return self.intercept[None, :] + vs[:, None] * self.slope[None, :]

    def frozen_state(self):
        return (self.intercept.copy(), self.slope.copy())

    def state(self):
        return (np.stack([self.intercept, self.slope], axis=1),
                np.stack([self._comp_a, self._comp_b], axis=1))


class _RefConstantAccumulator:
    kind = CONSTANT

    def __init__(self, n_arms):
        self.n_arms = n_arms
        self.totals, self._comp = np.zeros(n_arms), np.zeros(n_arms)
        self.version = 0

    def add(self, arm, weight, loss):
        y = weight * loss.value - self._comp[arm]
        t = self.totals[arm] + y
        self._comp[arm] = (t - self.totals[arm]) - y
        self.totals[arm] = t
        self.version += 1

    def eval_column(self, context):
        return self.totals

    def eval_batch(self, contexts):
        return np.broadcast_to(self.totals, (len(contexts), self.n_arms)).copy()

    def frozen_state(self):
        return (self.totals.copy(),)

    def state(self):
        return self.totals[:, None], self._comp[:, None]


class _RefSnapshotHandle:
    def __init__(self, kind, state, eta, n_arms, version):
        self.kind, self.eta, self.n_arms, self.version = kind, float(eta), n_arms, version
        self._state = tuple(a.copy() for a in state)

    def eval_column(self, context):
        if self.kind == TABULAR:
            return self._state[0][:, context]
        if self.kind == AFFINE:
            return self._state[0] + self._state[1] * float(context)
        return self._state[0]

    def eval_batch(self, contexts):
        if self.kind == TABULAR:
            return self._state[0][:, contexts].T
        if self.kind == AFFINE:
            vs = np.asarray(contexts, dtype=float)
            return self._state[0][None, :] + vs[:, None] * self._state[1][None, :]
        return np.broadcast_to(self._state[0], (len(contexts), self.n_arms)).copy()

    def weights(self, context, mask=None):
        return _ref_ftrl_weights(self.eval_column(context), self.eta, mask)

    def weights_batch(self, contexts, masks=None):
        cum = np.ascontiguousarray(self.eval_batch(contexts))
        return _ref_ftrl_weights_batch(cum, self.eta, masks)


def _ref_snapshot(acc, eta):
    return _RefSnapshotHandle(acc.kind, acc.frozen_state(), eta, acc.n_arms, acc.version)


def _ref_accumulator(kind, n_arms, n_contexts):
    if kind == TABULAR:
        return _RefTabularAccumulator(n_arms, n_contexts)
    return {AFFINE: _RefAffineAccumulator, CONSTANT: _RefConstantAccumulator}[kind](n_arms)


PHI = {TABULAR: TabularAccumulator, AFFINE: AffineAccumulator, CONSTANT: ConstantAccumulator}


def _ref_loss(kind, numbers, validate=True):
    if kind == TABULAR:
        return _RefTabularLoss(numbers, validate)
    cls = _RefAffineLoss if kind == AFFINE else _RefConstantLoss
    return cls(*numbers, validate=validate)


def _random_numbers(kind, gen, n_contexts):
    if kind == TABULAR:
        return gen.random(n_contexts)
    if kind == AFFINE:
        a = float(gen.random())
        return [a, float(gen.uniform(-a, 1 - a))]
    return [float(gen.random())]


def _probe_contexts(kind, gen, n_contexts):
    if kind == TABULAR:
        return np.arange(n_contexts)
    return np.concatenate([[0.0, 1.0], gen.random(n_contexts)])


@pytest.mark.parametrize("kind", [TABULAR, AFFINE, CONSTANT])
def test_linear_losses_and_accumulators_match_reference(kind):
    gen = np.random.default_rng(["tabular", "affine", "constant"].index(kind) + 10)
    for trial in range(12):
        n_arms, n_contexts = int(gen.integers(2, 10)), int(gen.integers(1, 20))
        acc = make_accumulator(kind, n_arms, n_contexts)
        ref = _ref_accumulator(kind, n_arms, n_contexts)
        contexts = _probe_contexts(kind, gen, n_contexts)
        for step in range(400):
            arm = int(gen.integers(n_arms))
            # tiny and huge weights, so the compensation terms matter
            weight = 0.0 if step % 97 == 0 else float(10.0 ** gen.uniform(-12, 12))
            numbers = _random_numbers(kind, gen, n_contexts)
            loss = LinearLoss(PHI[kind], numbers, validate=False)
            ref_loss = _ref_loss(kind, numbers, validate=False)
            acc.add(arm, weight, loss)
            ref.add(arm, weight, ref_loss)
            assert [loss.eval(c) for c in contexts.tolist()] == \
                [ref_loss.eval(c) for c in contexts.tolist()]
            if step % 50 == 49:
                coef, comp = ref.state()
                assert np.array_equal(acc.coef, coef) and np.array_equal(acc._comp, comp)
                assert acc.version == ref.version
                for c in contexts.tolist():
                    assert np.array_equal(acc.eval_column(c), ref.eval_column(c))
                assert np.array_equal(acc.eval_batch(contexts), ref.eval_batch(contexts))
                eta = float(10.0 ** gen.uniform(-14, -10))
                snap, ref_snap = snapshot(acc, eta), _ref_snapshot(ref, eta)
                assert snap.version == ref_snap.version
                masks = _random_masks(gen, (contexts.size, n_arms))
                for i, c in enumerate(contexts.tolist()):
                    assert np.array_equal(snap.eval_column(c), ref_snap.eval_column(c))
                    for mask in (None, masks[i]):
                        assert np.array_equal(snap.weights(c, mask), ref_snap.weights(c, mask))
                assert np.array_equal(snap.eval_batch(contexts), ref_snap.eval_batch(contexts))
                for m in (None, masks):
                    view = learner_module._SnapView(snap, ContextSpace(contexts), m)
                    assert view.table.tobytes() == ref_snap.weights_batch(contexts, m).tobytes()


def _expression_add(coef, comp, arm, weight, loss):
    """The Kahan add as an expression on fresh arrays, as it was before
    the add ran in place."""
    y = weight * loss.coef - comp[arm]
    t = coef[arm] + y
    comp[arm] = (t - coef[arm]) - y
    coef[arm] = t


@pytest.mark.parametrize("kind", [TABULAR, AFFINE, CONSTANT])
def test_in_place_kahan_add_matches_expression(kind):
    gen = np.random.default_rng(["tabular", "affine", "constant"].index(kind) + 30)
    for trial in range(10):
        n_arms, n_contexts = int(gen.integers(2, 12)), int(gen.integers(1, 80))
        acc = make_accumulator(kind, n_arms, n_contexts)
        coef, comp = np.zeros_like(acc.coef), np.zeros_like(acc.coef)
        for step in range(300):
            arm = int(gen.integers(n_arms))
            # tiny and huge weights, so the compensation rows move
            weight = 0.0 if step % 89 == 0 else float(10.0 ** gen.uniform(-12, 12))
            loss = LinearLoss(PHI[kind], _random_numbers(kind, gen, n_contexts),
                              validate=False)
            acc.add(arm, weight, loss)
            _expression_add(coef, comp, arm, weight, loss)
            assert np.array_equal(acc.coef, coef) and np.array_equal(acc._comp, comp)
        assert comp.any()


@pytest.mark.parametrize("kind", [TABULAR, AFFINE, CONSTANT])
def test_loss_range_check_matches_reference(kind):
    gen = np.random.default_rng(["tabular", "affine", "constant"].index(kind) + 20)
    size = {TABULAR: 5, AFFINE: 2, CONSTANT: 1}[kind]
    refused = 0
    for _ in range(3000):
        # around the edges of [0, 1], within and beyond the tolerance
        numbers = gen.choice([-1e-8, -1e-10, 0.0, 0.5, 1.0, 1 + 1e-10, 1 + 1e-8,
                              float(gen.uniform(-1.5, 1.5))], size=size).tolist()
        try:
            _ref_loss(kind, numbers)
        except AccumulatorError:
            refused += 1
            with pytest.raises(AccumulatorError):
                LinearLoss(PHI[kind], numbers)
        else:
            LinearLoss(PHI[kind], numbers)
    assert 0 < refused < 3000


class _RefAudit:
    """The audit with its kind switches, per-kind proxy sums and per-round
    tallies; it also keeps the proxy maximum of every closed epoch."""

    def __init__(self, env, params):
        self.env, self.params = env, params
        self.records, self.proxy_maxima = [], []
        self._open = None
        space = env.known_nu_oracle()
        self._probes = space.contexts
        self._masks = _ref_masks(space.contexts.tolist(), env.active_mask, env.n_arms)
        self._probe_weights = env.context_space.weights
        self._acc_kind = env.acc_kind

    def epoch_started(self, learner, epoch):
        self._close(epoch)
        if epoch < 2:
            return
        params = self.params
        snap = learner.snapshot_current
        table = _ref_ftrl_weights_batch(np.ascontiguousarray(snap.eval_batch(self._probes)),
                                        snap.eta, self._masks)
        f = 0.5 * (self._probe_weights @ table)
        fhat = learner.freq_estimate
        beta = (f + params.gamma) / (fhat + 1.5 * params.gamma)
        dev = np.abs(fhat - f)
        bound = 2.0 * np.maximum(np.sqrt(f * params.conf / params.epoch_len),
                                 params.conf / params.epoch_len)
        K = params.n_arms
        if self._acc_kind == TABULAR:
            proxy = np.zeros((K, self.env.n_contexts))
        elif self._acc_kind == AFFINE:
            proxy = np.zeros((K, 2))
        else:
            proxy = np.zeros(K)
        self._open = {
            "epoch": epoch, "freq_true": f, "freq_est": fhat, "beta": beta,
            "conc_ok": bool((dev <= bound).all()),
            "fallback_rounds": 0, "rounds": 0, "proxy": proxy,
        }

    def _proxy_max(self, proxy):
        if self._acc_kind == AFFINE:
            return float(np.maximum(proxy[:, 0], proxy[:, 0] + proxy[:, 1]).max())
        return float(proxy.max())

    def _close(self, next_epoch):
        if self._open is None:
            return
        o = self._open
        self._open = None
        limit = self.params.epoch_len + self.params.conf / self.params.gamma
        self.proxy_maxima.append(self._proxy_max(o["proxy"]))
        self.records.append(verify_module.EpochAudit(
            epoch=o["epoch"], freq_true=o["freq_true"], freq_est=o["freq_est"],
            beta=o["beta"], conc_ok=o["conc_ok"],
            proxy_ok=self._proxy_max(o["proxy"]) <= limit,
            fallback_rounds=o["fallback_rounds"], rounds=o["rounds"]))

    def round_played(self, fallback):
        if self._open is not None:
            self._open["rounds"] += 1
            self._open["fallback_rounds"] += bool(fallback)

    def estimate_recorded(self, arm, loss_fn):
        if self._open is None:
            return
        scale = 2.0 / (self._open["freq_true"][arm] + self.params.gamma)
        proxy = self._open["proxy"]
        if self._acc_kind == TABULAR:
            proxy[arm] += scale * loss_fn.values
        elif self._acc_kind == AFFINE:
            proxy[arm, 0] += scale * loss_fn.intercept
            proxy[arm, 1] += scale * loss_fn.slope
        else:
            proxy[arm] += scale * loss_fn.value


def _ref_reveal(env, t, arm):
    """What reveal returned before the coefficient rows."""
    if env.kind == "tabular":
        return _RefTabularLoss(env._mu[arm] + env._amp * env._noise[t, arm], validate=False)
    if env.kind == "auction":
        b = env.bids[arm]
        if b >= env.payments[t]:
            return _RefAffineLoss((1.0 + b) / 2.0, -0.5, validate=False)
        return _RefAffineLoss(0.5, 0.0, validate=False)
    return _RefConstantLoss(env.losses[t, arm], validate=False)


AUDIT_CASES = {name: KNOWN_NU_CASES[name][:2] for name in (
    "tabular", "tabular_active", "sleeping_bernoulli", "auction_atoms")}


@pytest.mark.parametrize("case", sorted(AUDIT_CASES))
def test_audit_records_match_reference(case, monkeypatch):
    kind, fields = AUDIT_CASES[case]
    horizon = 3000
    env = build_env(dict(fields, kind=kind), horizon, RngStream(12, ENV_STREAM))
    base = calibrated_params(env.n_arms, horizon)
    params = dataclasses.replace(base, eta=4 * base.eta)
    seed = 5
    maxima = []
    close = verify_module._AuditObserver._close

    def traced_close(self, next_epoch):
        if self._open is not None:
            maxima.append(float(self._acc.upper(self._open["proxy"]).max()))
        close(self, next_epoch)

    monkeypatch.setattr(verify_module._AuditObserver, "_close", traced_close)
    got = verify_module.audit_run(env, params, seed)

    monkeypatch.setattr(learner_module, "snapshot", _ref_snapshot)
    audit = _RefAudit(env, params)
    ref_acc = _ref_accumulator(env.acc_kind, env.n_arms, getattr(env, "n_contexts", None))
    ref = CrossLearner(params, ref_acc, RngStream(seed, ALGO_STREAMS["crosslearn"]),
                       active=env.active_mask)
    for t in range(horizon):
        context = env.context(t)
        fallbacks, version, epoch = ref.fallback_count, ref_acc.version, ref.epoch
        ref.step(context, lambda a: _ref_reveal(env, t, a))
        audit.round_played(ref.fallback_count - fallbacks)
        if ref_acc.version != version:
            audit.estimate_recorded(*ref.last_kept)
        if ref.epoch != epoch:
            audit.epoch_started(ref, ref.epoch)
    audit._close(None)

    want = audit.records
    assert len(got) == len(want) > 5
    assert maxima == audit.proxy_maxima
    assert len(set(maxima)) > 1  # the proxies moved
    for g, w in zip(got, want):
        for field in ("epoch", "conc_ok", "proxy_ok", "fallback_rounds", "rounds"):
            assert getattr(g, field) == getattr(w, field)
        for field in ("freq_true", "freq_est", "beta"):
            assert np.array_equal(getattr(g, field), getattr(w, field))


# Snapshot tables over the finite context space of an env, against rows
# computed per lookup by the snapshot handle.
TABLE_ENVS = ("tabular", "tabular_active", "auction_atoms", "sleeping_bernoulli",
              "sleeping_categorical")


def _cross_learner(env, params, space):
    acc = make_accumulator(env.acc_kind, env.n_arms, getattr(env, "n_contexts", None))
    return CrossLearner(params, acc, RngStream(3, ALGO_STREAMS["crosslearn"]),
                        active=env.active_mask, space=space)


def _play(env, learner, at_epoch_start=None):
    """The arms the learner plays over env's horizon. at_epoch_start(learner)
    runs before the first round and after each round that starts an epoch."""
    arms = []
    if at_epoch_start is not None:
        at_epoch_start(learner)
    for t in range(env.horizon):
        context = env.context(t)
        epoch = learner.epoch
        arms.append(learner.step(context, lambda a: env.reveal(t, a)))
        if at_epoch_start is not None and learner.epoch != epoch:
            at_epoch_start(learner)
    return arms


@pytest.mark.parametrize("name", TABLE_ENVS)
def test_snapshot_table_rows_match_per_lookup_rows(name):
    env = ENVS[name]()
    space = env.context_space
    assert env.known_nu_oracle() is space
    versions = []

    def check(learner):
        for view in (learner._snap_cur, learner._snap_next):
            assert view.table.shape == (len(space), env.n_arms)
            for row, context in enumerate(space.contexts.tolist()):
                mask = env.active_mask(context)
                want = np.asarray(view.handle.weights(context, mask)).tobytes()
                assert view.table[row].tobytes() == want, (row, context)
                assert view.row(row, context, mask) == view.handle.weights(context, mask)
        versions.append(learner._snap_cur.handle.version)

    params = dataclasses.replace(calibrated_params(env.n_arms, env.horizon), eta=0.5)
    _play(env, _cross_learner(env, params, space), check)
    # the warm-up snapshot, then snapshots of several accumulator states
    assert versions[0] == 0 and len(set(versions)) > 5


# The live table (learner.SpaceTable) against the softmaxes each round
# computed before it: its exponent rows against
# _ref_ftrl_weights(acc.eval_column(c), eta, mask) at every context c of
# the space and its distributions against _ref_ftrl_weights_batch, after
# every add, on the real accumulators and on the reference ones above.
# "acc" and "ref_acc" leave every add to the full rebuild. "one_arm"
# follows each add with the one-arm update (SpaceTable.added) and checks
# it against a freshly built table, except every fifth add, which nothing
# follows: the next update must then leave the table stale, and the next
# read rebuild it.
EXPONENT_SPECS = {
    "tabular": {"kind": "tabular_synthetic", "C": 64, "K": 8},
    "tabular_active": {"kind": "tabular_synthetic", "C": 4, "K": 3, "active": [
        [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]},
    "auction_atoms": {"kind": "auction", "K": 13, "values": {
        "kind": "discrete", "atoms": [(i + 0.5) / 64 for i in range(64)],
        "probs": [1.0] * 64}},
    "sleeping_bernoulli": {"kind": "sleeping", "K": 6},
    "sleeping_categorical": KNOWN_NU_CASES["sleeping_categorical"][1] | {"kind": "sleeping"},
}


def _current_exponents(table, acc):
    """The rows of an exponent table as a round reads them."""
    if table.version != acc.version:
        table.rebuild()
    return table.rows


@pytest.mark.parametrize("reference, one_arm", [(False, False), (True, False), (False, True)],
                         ids=["acc", "ref_acc", "one_arm"])
@pytest.mark.parametrize("name", sorted(EXPONENT_SPECS))
def test_exponent_rows_match_per_round_softmax_after_every_add(name, reference, one_arm,
                                                               monkeypatch):
    env = build_env(EXPONENT_SPECS[name], 64, RngStream(8, ENV_STREAM))
    space, kind, K = env.context_space, env.acc_kind, env.n_arms
    n_contexts = getattr(env, "n_contexts", None)
    acc = (_ref_accumulator if reference else make_accumulator)(kind, K, n_contexts)
    gen = np.random.default_rng(sorted(EXPONENT_SPECS).index(name) + 40 * reference)
    eta = float(gen.uniform(0.05, 2.0))
    masks = space_masks(space, env.active_mask, K)
    table = learner_module.SpaceTable(acc, space, masks, eta)
    rebuilt = []  # acc.version at each full rebuild
    rebuild = learner_module.SpaceTable.rebuild
    monkeypatch.setattr(learner_module.SpaceTable, "rebuild",
                        lambda self: rebuilt.append(self._source.version) or rebuild(self))
    contexts = space.contexts.tolist()
    ref_masks = _ref_masks(contexts, env.active_mask, K)
    rows = [c if space.rows is None else space.rows[c] for c in contexts]
    context_masks = [env.active_mask(c) for c in contexts]
    want_rebuilt = []
    for step in range(60):
        numbers = _random_numbers(kind, gen, n_contexts)
        loss = (_ref_loss(kind, numbers, validate=False) if reference
                else LinearLoss(PHI[kind], numbers, validate=False))
        arm = int(gen.integers(K))
        acc.add(arm, float(10.0 ** gen.uniform(-2, 2)), loss)
        if one_arm:
            if step % 5 == 4:
                continue  # an add that no update follows
            stale = table.version != acc.version - 1
            table.added(arm)
            assert (table.version == acc.version) is not stale
            if not stale:
                fresh = learner_module.SpaceTable(acc, space, masks, eta)
                fresh.rebuild()
                assert table.exponents.tobytes() == fresh.exponents.tobytes(), step
                rebuilt.pop()  # the fresh table's
        if table.version != acc.version:
            want_rebuilt.append(acc.version)
        z_rows = _current_exponents(table, acc)
        for i, c, mask in zip(rows, contexts, context_masks):
            want = _ref_ftrl_weights(acc.eval_column(c), eta, mask)
            got = np.asarray(ftrl_weights(z_rows[i]))
            assert got.tobytes() == want.tobytes(), (step, c)
        want = _ref_ftrl_weights_batch(np.ascontiguousarray(acc.eval_batch(space.contexts)),
                                       eta, ref_masks)
        assert table.weights().tobytes() == want.tobytes(), step
        _current_exponents(table, acc)  # no add, no rebuild
    assert rebuilt == want_rebuilt
    # the first read builds the table; with one-arm updates, only a read
    # after an add that no update followed rebuilds it
    assert len(rebuilt) == (1 + 11 if one_arm else 60)


@pytest.mark.parametrize("name", TABLE_ENVS)
def test_run_from_tables_matches_run_on_per_lookup_rows(name):
    env = ENVS[name]()
    built = build_algo("crosslearn", env, 3, "calibrated")
    assert built._space is env.context_space
    tabled = _cross_learner(env, built.params, env.context_space)
    per_lookup = _cross_learner(env, built.params, None)
    assert tabled._snap_cur.table is not None and per_lookup._snap_cur.table is None
    tabled_freq, per_lookup_freq = [], []
    arms = _play(env, tabled, lambda lrn: tabled_freq.append(lrn.freq_estimate))
    assert arms == _play(env, per_lookup, lambda lrn: per_lookup_freq.append(lrn.freq_estimate))
    assert len(set(arms)) == env.n_arms
    assert tabled.fallback_count == per_lookup.fallback_count > 0
    assert len(tabled_freq) == len(per_lookup_freq) > 5
    for got, want in zip(tabled_freq, per_lookup_freq):
        assert got.tobytes() == want.tobytes()
    assert tabled.freq_estimate.tobytes() == per_lookup.freq_estimate.tobytes()
    assert tabled.acc.coef.tobytes() == per_lookup.acc.coef.tobytes()


@pytest.mark.parametrize("name", TABLE_ENVS)
def test_run_without_the_exponent_table_matches_run_with_it(name, monkeypatch):
    env = ENVS[name]()
    params = build_algo("crosslearn", env, 3, "calibrated").params
    with_table = _cross_learner(env, params, env.context_space)
    # one context too many for an exponent table; the snapshot tables stay
    monkeypatch.setattr(learner_module, "EXPONENT_TABLE_ROWS", len(env.context_space) - 1)
    without = _cross_learner(env, params, env.context_space)
    assert with_table._exponents is not None and without._exponents is None
    assert without._snap_cur.table is not None
    arms = _play(env, with_table)
    assert arms == _play(env, without)
    assert with_table.fallback_count == without.fallback_count > 0
    assert with_table.acc.coef.tobytes() == without.acc.coef.tobytes()
    assert with_table.freq_estimate.tobytes() == without.freq_estimate.tobytes()


def test_exponent_table_only_up_to_its_bound():
    n = learner_module.EXPONENT_TABLE_ROWS
    params = with_overrides(calibrated_params(3, 400), L=10, unsafe=True)
    for n_contexts, tabled in ((n, True), (n + 1, False)):
        env = TabularEnv.synthetic(n_contexts, 3, 400, RngStream(4, 0))
        learner = _cross_learner(env, params, env.context_space)
        assert learner._snap_cur.table is not None
        assert (learner._exponents is not None) is tabled, n_contexts


def test_space_larger_than_the_epoch_allows_serves_per_lookup_rows():
    # exactly TABLE_ROWS_PER_ROUND value atoms per round of the epoch still get a table
    L = 10
    n = TABLE_ROWS_PER_ROUND * L
    env = AuctionEnv.generate(400, RngStream(4, 0), values={
        "kind": "discrete", "atoms": (np.arange(n) / n).tolist(), "probs": [1] * n})
    base = calibrated_params(env.n_arms, env.horizon)
    for epoch_len, tabled in ((L, True), (L - 2, False)):
        learner = _cross_learner(env, with_overrides(base, L=epoch_len, unsafe=True),
                                 env.context_space)
        assert (learner._snap_cur.table is not None) is tabled, epoch_len
    # context ids get a table however many there are
    env = TabularEnv.synthetic(3 * n, 3, 400, RngStream(4, 0))
    params = with_overrides(calibrated_params(3, env.horizon), L=L - 2, unsafe=True)
    learner = _cross_learner(env, params, env.context_space)
    assert learner._snap_cur.table.shape == (3 * n, 3)
    # 1 023 availability subsets at a short epoch
    env = SleepingEnv.generate(600, 10, RngStream(4, 0))
    assert len(env.context_space) == 1023 > TABLE_ROWS_PER_ROUND * 20
    params = with_overrides(calibrated_params(env.n_arms, env.horizon), L=20, unsafe=True)
    learner = _cross_learner(env, params, env.context_space)
    assert learner._space is None
    for t in range(200):
        context = env.context(t)
        view = learner._snap_cur
        mask = env.active_mask(context)
        assert view.table is None
        assert view.row(None, context, mask) == view.handle.weights(context, mask)
        learner.step(context, lambda a: env.reveal(t, a))


def test_continuous_values_serve_per_lookup_rows():
    env = ENVS["auction_continuous"]()
    assert env.context_space is None
    learner = build_algo("crosslearn", env, 3, "calibrated")
    views = []
    _play(env, learner, lambda lrn: views.extend((lrn._snap_cur, lrn._snap_next)))
    assert len(views) > 10 and all(view.table is None for view in views)



def test_tables_give_inactive_arms_zero_weight():
    # the masks of every table over a space are read from env.active_mask
    for name in ("tabular_active", "sleeping_bernoulli", "sleeping_categorical"):
        env = ENVS[name]()
        space = env.context_space
        inactive = np.array([~env.active_mask(c) for c in space.contexts.tolist()])
        assert inactive.any(), name
        params = dataclasses.replace(calibrated_params(env.n_arms, env.horizon), eta=0.5)
        learner = _cross_learner(env, params, space)
        acc = make_accumulator(env.acc_kind, env.n_arms, getattr(env, "n_contexts", None))
        known = KnownNuLearner([acc], [space], 0.5, [RngStream(3, 2)], active=[env.active_mask])
        snapshots = set()
        for t in range(env.horizon):
            context = env.context(t)
            learner.step(context, lambda a: env.reveal(t, a))
            known.step(context, lambda a: env.reveal(t, a))
            ex = learner._exponents
            _current_exponents(ex, learner.acc)
            for table in (learner.snapshot_table, known.probe_table()[0]):
                assert (table[inactive] == 0.0).all() and (table[~inactive] > 0.0).all()
            assert (ex.exponents[inactive] == -np.inf).all()
            assert np.isfinite(ex.exponents[~inactive]).all()
            snapshots.add(learner.snapshot_table.tobytes())
        assert len(snapshots) > 3, name  # the tables moved
    # no masks stand for every arm
    env = ENVS["tabular"]()
    assert env.active is None
    assert space_masks(env.context_space, env.active_mask, env.n_arms) is None
    learner = _cross_learner(env, calibrated_params(4, HORIZON), env.context_space)
    assert (learner.snapshot_table == 0.25).all()


def test_context_space_builds_rows_when_first_read():
    space = ContextSpace(np.array([4, 9, 4]))
    assert not space.ids and space._rows is None
    assert space.rows == {4: 0, 9: 1} and space.rows is space.rows
    ids = ContextSpace(np.arange(3))
    assert ids.ids and ids.rows is None
    assert not ContextSpace(np.arange(3) + 0.0).ids
    env = SleepingEnv.generate(50, 16, RngStream(4, 0))
    assert len(env.context_space) == 65535 and env.known_nu_oracle() is env.context_space
    assert env.context_space.weights.sum() == pytest.approx(1.0, abs=1e-12)
