"""One round of the paired-epoch learner.

* The round on Python floats (list snapshot rows, the fallback test and
  the sampler on lists, frequency samples summed when the epoch ends)
  against a reference copy of the round on numpy vectors, with a
  frequency `+=` per pair: every comparison is exact.
* An exact check of one pair through the real CrossLearner.step, at the
  end of an epoch and at its start: every outcome of the pair is
  enumerated with scripted uniforms, and the laws of the added arm, the
  frequency sample and the added coefficients are compared with the
  paper's expectations to 1e-12.
"""

import copy
import dataclasses
from bisect import bisect_right

import numpy as np
import pytest

from crosslearn.accumulator import AFFINE, LinearLoss, make_accumulator, snapshot
from crosslearn.envs import AuctionEnv, SleepingEnv
from crosslearn.harness import ALGO_STREAMS, ENV_STREAM, build_env
from crosslearn.learner import (CrossLearner, Params, _sum_rows, bernoulli_param,
                                calibrated_params, estimate_weight)
from crosslearn.simplex import BlockUniforms, ContextSpace, RngStream, sample_index

from test_differential import _ref_ftrl_weights, _ref_masks


def _ref_select(p, s):
    """The unmasked fallback test on arrays, as it was."""
    ok = np.logical_and.reduce(p >= 0.5 * s)
    return (p, False) if ok else (s, True)


def _ref_sample_index(weights, gen):
    """sample_index on an array, as it was."""
    cs = weights.cumsum().tolist()
    u = gen.random() * cs[-1]
    k = bisect_right(cs, u)
    if k >= len(cs):
        k = len(cs) - 1
    while weights[k] == 0.0:
        k -= 1
    return k


class _RefSnapView:
    """The snapshot view as it was: array rows read from the table, or one
    softmax per lookup."""

    def __init__(self, handle, space=None, masks=None):
        self.handle = handle
        if space is None:
            self.table = self._rows = None
        else:
            self.table = handle.weights_batch(space.index, masks)
            self._rows = space.rows

    def weights(self, context, mask=None):
        if self.table is None:
            return np.asarray(self.handle.weights(context, mask))
        if self._rows is None:
            return self.table[context]
        row = self._rows.get(context)
        return np.asarray(self.handle.weights(context, mask)) if row is None else self.table[row]


class _RefCrossLearner(CrossLearner):
    """CrossLearner with the round as it was: numpy vectors after the
    softmax and a frequency `+=` per sample."""

    def __init__(self, params, accumulator, rng, active=None, space=None):
        # the table masks, built here apart from the learner's own
        self._ref_masks = None if space is None else _ref_masks(
            space.contexts.tolist(), active, params.n_arms)
        super().__init__(params, accumulator, rng, active, space)

    def _view(self, handle):
        return _RefSnapView(handle, self._space, self._ref_masks)

    def _end_epoch(self):
        if self._snap_pending is None:
            self._snap_pending = self._view(snapshot(self.acc, self.params.eta))
        self._snap_cur = self._snap_next
        self._snap_next = self._snap_pending
        self._snap_pending = None
        self._freq = self._freq_next
        self._freq_next = np.zeros(self.params.n_arms)
        self._epoch += 1

    def step(self, context, reveal):
        t_next = self._t + 1
        self._t = t_next
        L = self.params.epoch_len
        mask = self._mask(context)
        gen = self._gen
        if t_next <= L:
            arm = _ref_sample_index(self._snap_cur.weights(context, mask), gen)
            reveal(arm)
            self._freq_next += self._snap_next.weights(context, mask) / (2.0 * L)
            if t_next == L:
                self._end_epoch()
            return arm
        s = self._snap_cur.weights(context, mask)
        p = _ref_ftrl_weights(self.acc.eval_column(context), self.params.eta, mask)
        q, fb = _ref_select(p, s)
        arm = _ref_sample_index(q, gen)
        fn = reveal(arm)
        self.fallback_count += fb
        if t_next > self._paired_end:
            return arm
        pos = (t_next - 1) % L
        if pos % 2 == 0:
            if pos == L - 2:
                self._snap_pending = self._view(snapshot(self.acc, self.params.eta))
            self._pending = (context, mask, arm, float(q[arm]), float(s[arm]), fn)
            return arm
        c1, m1, a1, q1, s1, fn1 = self._pending
        self._pending = None
        if gen.random() < 0.5:
            cf, mf = c1, m1
            al, ql, sl, fnl = arm, float(q[arm]), float(s[arm]), fn
        else:
            cf, mf = context, mask
            al, ql, sl, fnl = a1, q1, s1, fn1
        self._freq_next += self._snap_next.weights(cf, mf) / float(L)
        if gen.random() < bernoulli_param(sl, ql):
            w = estimate_weight(self._freq[al], self.params.gamma)
            self.acc.add(al, w, fnl)
        if pos == L - 1:
            self._end_epoch()
        return arm


# (spec, horizon); no horizon is a multiple of its epoch length
ROUND_SPECS = {
    "tabular": ({"kind": "tabular_synthetic", "C": 6, "K": 4}, 2501),
    "tabular_active": ({"kind": "tabular_synthetic", "C": 4, "K": 3, "active": [
        [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]}, 2501),
    "sleeping_bernoulli": ({"kind": "sleeping", "K": 6}, 3001),
    "sleeping_skewed": ({"kind": "sleeping", "K": 10, "availability": {
        "kind": "bernoulli", "probs": [0.95] * 5 + [0.05] * 5}}, 3001),
    "sleeping_categorical": ({"kind": "sleeping", "K": 4, "availability": {
        "kind": "categorical", "subsets": [[0, 1], [2], [1, 2, 3], [0, 1]],
        "probs": [0.3, 0.2, 0.4, 0.1]}}, 2501),
    "auction_atoms": ({"kind": "auction", "values": {
        "kind": "discrete", "atoms": [0.1, 0.35, 0.6, 0.9], "probs": [1, 2, 3, 4]}}, 2501),
    "auction_continuous": ({"kind": "auction"}, 2501),
}
# specs whose snapshots compute their rows per lookup: no space, or a
# space too large for a table (1 023 subsets)
PER_LOOKUP = {"sleeping_skewed", "auction_continuous"}


@pytest.mark.parametrize("name", sorted(ROUND_SPECS))
def test_round_on_floats_matches_round_on_arrays(name):
    spec, horizon = ROUND_SPECS[name]
    env = build_env(spec, horizon, RngStream(4, ENV_STREAM))
    base = calibrated_params(env.n_arms, horizon)
    # a hot rate, so that rounds both fall back and play p
    params = dataclasses.replace(base, eta=4 * base.eta)
    assert horizon % params.epoch_len > 0

    def learner(cls):
        acc = make_accumulator(env.acc_kind, env.n_arms, getattr(env, "n_contexts", None))
        return cls(params, acc, RngStream(4, ALGO_STREAMS["crosslearn"]),
                   active=env.active_mask, space=env.context_space)

    new, ref = learner(CrossLearner), learner(_RefCrossLearner)
    assert (new._snap_cur.table is None) == (name in PER_LOOKUP)
    arms = []
    # the frequency estimate at the start of every epoch
    new_freq, ref_freq = [new.freq_estimate.tobytes()], [ref.freq_estimate.tobytes()]
    for t in range(horizon):
        context = env.context(t)
        epoch = new.epoch
        arms.append(new.step(context, lambda a: env.reveal(t, a)))
        assert arms[-1] == ref.step(context, lambda a: env.reveal(t, a)), t
        assert new.epoch == ref.epoch
        if new.epoch != epoch:
            new_freq.append(new.freq_estimate.tobytes())
            ref_freq.append(ref.freq_estimate.tobytes())
    assert len(set(arms)) == env.n_arms
    assert 0 < new.fallback_count == ref.fallback_count < horizon - params.epoch_len
    assert len(new_freq) == 1 + horizon // params.epoch_len
    assert new_freq == ref_freq
    assert new.freq_estimate.tobytes() == ref.freq_estimate.tobytes()
    assert new.acc.coef.tobytes() == ref.acc.coef.tobytes()
    assert new.acc._comp.tobytes() == ref.acc._comp.tobytes()
    assert new.acc.version == ref.acc.version


def test_deferred_frequency_sum_matches_per_row_adds():
    gen = np.random.default_rng(11)
    for trial in range(300):
        K, n_rows, n = int(gen.integers(2, 25)), int(gen.integers(1, 200)), \
            int(gen.integers(1, 801))
        table = gen.random((n_rows, K)) ** 3
        table /= table.sum(axis=1, keepdims=True)
        rows = gen.integers(n_rows, size=n).tolist()
        div = float(gen.integers(2, 400))
        total = gen.random(K) if trial % 2 else np.zeros(K)
        want = total.copy()
        for i in rows:
            want += table[i] / div
        assert _sum_rows(total, table, rows, div).tobytes() == want.tobytes(), trial


def test_sample_index_same_on_list_and_array():
    rows = np.random.default_rng(5).random((3000, 9))
    rows[rows < 0.3] = 0.0
    rows[:, 7] += 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    gens = [np.random.default_rng(6) for _ in range(3)]
    for w in rows:
        k = _ref_sample_index(w, gens[0])
        assert sample_index(w.tolist(), gens[1]) == sample_index(w, gens[2]) == k
        assert w[k] > 0


# Exact check of one pair. The learner is driven to the first round of the
# last (or the first) pair of an epoch >= 2; the current FTRL state is then set per
# context, so that some contexts fall back (q = s) and some play q = p.
class _Script:
    """A generator whose random(n) returns the scripted floats, then 0.5s."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out + [0.5] * (n - len(out)))


PAIR_L = 4


def _drive(n_arms, space, active, kind, seed, last):
    """A learner after four epochs of random play on fixed loss rows, one
    round before the fifth epoch's last pair if `last`, else before its
    first; its nu and loss rows. The accumulator is of the given kind:
    tabular over context ids, constant over the subsets of a sleeping env,
    affine over auction value atoms."""
    contexts = space.contexts.tolist()
    n_contexts = len(contexts)
    gen = np.random.default_rng(seed)
    nu = gen.random(n_contexts) + 0.2
    nu /= nu.sum()
    acc = make_accumulator(kind, n_arms, n_contexts)
    ell = gen.random(acc.coef.shape)
    if kind == AFFINE:
        ell[:, 1] -= ell[:, 0]  # lines a + b v = a (1 - v) + (a + b) v inside [0, 1]
    params = Params(n_arms=n_arms, horizon=10 * PAIR_L, conf=1.0, epoch_len=PAIR_L,
                    gamma=0.1, eta=0.3)
    # over a tabulated space, so that the frequency samples are table rows
    # whose sum waits for the end of the epoch
    learner = CrossLearner(params, acc, RngStream(seed, 0), active=active, space=space)
    losses = [LinearLoss(type(acc), row) for row in ell]
    played = {}  # epoch -> the FTRL state its last pair plays
    pos = PAIR_L - 2 if last else 0
    for _ in range(4 * PAIR_L + pos):
        if learner.t % PAIR_L == PAIR_L - 2 and learner.epoch >= 2:
            played[learner.epoch] = learner.acc.coef.tobytes()
        learner.step(contexts[int(gen.choice(n_contexts, p=nu))], losses.__getitem__)
    assert learner.epoch == 5 and learner.t % PAIR_L == pos
    # the snapshots are two and one epochs behind
    assert learner.snapshot_current.coef.tobytes() == played[3]
    assert learner.snapshot_next.coef.tobytes() == played[4]
    # samples of this epoch wait to be summed
    assert bool(learner._freq_rows) is last
    learner._gen = None  # replaced by a script for each outcome
    return learner, nu, ell, losses


def _set_state(learner, fallback):
    """Set the FTRL state to the current snapshot, then for each context c
    lower the logit of one arm: by 20 at the snapshot's likeliest arm at c
    where fallback[c] (so q = s), else by 0.3 at its last active arm (so
    q = p, not s). Over context ids each context has its own column of the
    state; a constant accumulator shares one column, so the contexts'
    changes add up. An affine state has no column per value either: its
    last context's likeliest arm gets the loss line 20 (v - v0), v0 = 0.02
    above the first value, so that only the first context plays q = p
    (its logit rises by 0.4, every other one falls by 5 or more)."""
    snap = learner.snapshot_current
    coef = snap.coef.copy()
    eta = learner.params.eta
    contexts = learner.context_space.contexts.tolist()
    if learner.acc.kind == AFFINE:
        assert fallback == [False] + [True] * (len(contexts) - 1)
        arm = int(np.argmax(snap.weights(contexts[-1])))
        coef[arm] += np.array([-20.0 * (contexts[0] + 0.02), 20.0]) / eta
        fallback = []
    for i, (c, fb) in enumerate(zip(contexts, fallback)):
        s = snap.weights(c, learner._mask(c))
        arm = int(np.argmax(s)) if fb else int(np.flatnonzero(s)[-1])
        coef[arm, i if learner.context_space.ids else 0] += (20.0 if fb else 0.3) / eta
    learner.acc.coef[...] = coef
    learner.acc.version += 1  # the state moved, as an add would move it


def _pair_outcomes(learner, nu, losses):
    """Every outcome of the next pair with its probability: the learner
    after the pair, the coin (True: the first round takes the frequency
    sample), the context rows and the arm added (None if none)."""
    acc = learner.acc
    eta = learner.params.eta
    contexts = learner.context_space.contexts.tolist()
    q, s, fallback = [], [], []
    for c in contexts:
        mask = learner._mask(c)
        sc = np.asarray(learner.snapshot_current.weights(c, mask))
        pc = _ref_ftrl_weights(acc.eval_column(c), eta, mask)
        fb = not bool((pc >= 0.5 * sc).all())
        q.append(sc if fb else pc)
        s.append(sc)
        fallback.append(fb)
    out = []
    n_contexts = len(contexts)
    for c1 in range(n_contexts):
        for a1 in np.flatnonzero(q[c1]):
            for c2 in range(n_contexts):
                for a2 in np.flatnonzero(q[c2]):
                    for coin in (True, False):
                        cl, al = (c2, a2) if coin else (c1, a1)
                        r = s[cl][al] / (2.0 * q[cl][al])
                        for keep in ((True, False) if r < 1 else (True,)):
                            prob = nu[c1] * q[c1][a1] * nu[c2] * q[c2][a2] * 0.5 * (
                                r if keep else 1.0 - r)
                            u = [_mid(q[c1], a1), _mid(q[c2], a2), 0.25 if coin else 0.75,
                                 r / 2 if keep else (1.0 + r) / 2]
                            after = copy.deepcopy(learner)
                            after._gen = BlockUniforms(_Script(u))
                            assert after.step(contexts[c1], losses.__getitem__) == a1
                            assert after.step(contexts[c2], losses.__getitem__) == a2
                            out.append((prob, after, coin, c1, c2,
                                        al if after.acc.version > acc.version else None))
    return out, s, fallback


def _mid(q, k):
    """The uniform at the middle of arm k's interval of the CDF of q."""
    cs = np.cumsum(q)
    return float((cs[k] - 0.5 * q[k]) / cs[-1])


def _ids(n_contexts, active=None):
    return ContextSpace(np.arange(n_contexts)), active, "tabular"


def _subsets(subsets, n_arms):
    """The context space, active_mask and accumulator kind of a sleeping
    env whose availability draws one of the listed subsets."""
    env = SleepingEnv.generate(PAIR_L, n_arms, RngStream(0, 0), availability={
        "kind": "categorical", "subsets": subsets, "probs": [1.0] * len(subsets)})
    return env.context_space, env.active_mask, env.acc_kind


def _atoms(atoms, n_arms):
    """The same of an auction on the given value atoms."""
    env = AuctionEnv.generate(PAIR_L, RngStream(0, 0), n_arms=n_arms, values={
        "kind": "discrete", "atoms": atoms, "probs": [1.0] * len(atoms)})
    return env.context_space, env.active_mask, env.acc_kind


MASKS = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)
PAIR_CASES = {
    # (arms, the space and the active sets, which contexts fall back, the
    # pair ends the epoch)
    "unmasked": (3, lambda: _ids(3), [True, False, False], True),
    "masked": (3, lambda: _ids(3, MASKS.__getitem__), [True, False, True], True),
    "no_fallback": (2, lambda: _ids(2), [False, False], True),
    "not_last": (3, lambda: _ids(3), [True, False, False], False),
    "sleeping": (3, lambda: _subsets([[0, 1], [2], [1, 2]], 3), [True, False, False], True),
    "auction": (3, lambda: _atoms([0.1, 0.35, 0.6, 0.9], 3), [False, True, True, True], True),
}


@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_one_pair_matches_the_estimator_laws_exactly(case):
    n_arms, make_space, want_fallback, last = PAIR_CASES[case]
    space, active, kind = make_space()
    contexts = space.contexts.tolist()
    n_contexts = len(contexts)
    learner, nu, ell, losses = _drive(n_arms, space, active, kind, len(case), last)
    # the epoch's estimate so far, its recorded rows summed
    before = copy.deepcopy(learner)
    before._flush_freq()
    freq0 = before._freq_next.copy()
    _set_state(learner, want_fallback)
    coef0, freq_hat = learner.acc.coef.copy(), learner.freq_estimate
    outcomes, s, fallback = _pair_outcomes(learner, nu, losses)
    assert fallback == want_fallback
    s = np.array(s)
    s_next = np.array([learner._snap_next.handle.weights(c, learner._mask(c))
                       for c in contexts])
    assert np.abs(s_next - s).max() > 1e-3  # the two snapshots differ
    L, gamma = learner.params.epoch_len, learner.params.gamma
    probs = np.array([o[0] for o in outcomes])
    assert abs(probs.sum() - 1.0) < 1e-12

    p_add = np.zeros(n_arms)
    d_freq = np.zeros(n_arms)
    d_coef = np.zeros_like(coef0)
    # per (frequency-round context, arm): P(that context and arm k added)
    joint = np.zeros((n_contexts, n_arms))
    # per (coin, first-round context): E[frequency sample; coin, c1]
    by_coin = np.zeros((2, n_contexts, n_arms))
    for prob, after, coin, c1, c2, added in outcomes:
        if last:
            assert after.epoch == 6  # the pair ended the epoch
            delta = np.array(after.freq_estimate) - freq0
        else:
            assert after.epoch == 5 and after._freq_rows  # the sample waits
            after._flush_freq()
            delta = after._freq_next - freq0
        d_freq += prob * delta
        cf = c1 if coin else c2
        by_coin[int(coin), c1] += prob * delta
        if added is not None:
            assert after.last_kept == (added, losses[added])
            p_add[added] += prob
            joint[cf, added] += prob
            d_coef += prob * (after.acc.coef - coef0)
    atol = dict(rtol=0, atol=1e-12)
    want_add = nu @ s / 2
    np.testing.assert_allclose(p_add, want_add, **atol)
    np.testing.assert_allclose(d_freq, nu @ s_next / L, **atol)
    # which round takes which sample: after heads the first round's
    # context gives the frequency sample, after tails the second's
    for coin in (0, 1):
        for c in range(n_contexts):
            want = nu[c] * 0.5 * (s_next[c] / L if coin else nu @ s_next / L)
            np.testing.assert_allclose(by_coin[coin, c], want, **atol)
    # the frequency round's context and the added arm are independent
    np.testing.assert_allclose(joint, np.outer(nu, want_add), **atol)
    weight = 2.0 / (freq_hat + 1.5 * gamma)
    np.testing.assert_allclose(d_coef, (ell * (want_add * weight)[:, None]), **atol)
