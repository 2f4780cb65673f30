import csv
import gc
import math
import weakref
from itertools import product

import numpy as np
import pytest

from crosslearn.envs import (
    AuctionEnv,
    EnvError,
    RegretTracker,
    SleepingEnv,
    TabularEnv,
    auction_loss,
    hindsight_regret,
    subset_to_mask,
)
from crosslearn.accumulator import make_accumulator
from crosslearn.baselines import KnownNuLearner, known_nu_rate
from crosslearn.learner import tune_parameters, with_overrides
from crosslearn.simplex import RngStream
from crosslearn.verify import audit_run


def test_auction_loss_examples():
    # win: bid 0.4 beats payment 0.3, utility 0.3, loss (1 - 0.3)/2
    assert auction_loss(0.7, 0.4, 0.3) == pytest.approx(0.35)
    # lose: bid below payment, utility 0, loss 1/2
    assert auction_loss(0.7, 0.2, 0.3) == pytest.approx(0.5)
    # winning above value is worse than losing
    assert auction_loss(0.3, 0.5, 0.4) == pytest.approx(0.6)
    # tie goes to the bidder
    assert auction_loss(1.0, 0.5, 0.5) == pytest.approx(0.25)


def test_auction_loss_range_fuzz():
    gen = np.random.default_rng(7)
    for _ in range(2000):
        v, b, m = gen.random(3)
        ell = auction_loss(v, b, m)
        assert 0.0 <= ell <= 1.0


def test_auction_reveal_matches_scalar_losses():
    # the affine feedback evaluated at any value equals the scalar loss
    env = AuctionEnv.generate(500, RngStream(3, 0))
    gen = np.random.default_rng(11)
    for _ in range(300):
        t = int(gen.integers(env.horizon))
        arm = int(gen.integers(env.n_arms))
        fn = env.reveal(t, arm)
        v = env.context(t)
        assert fn.eval(v) == pytest.approx(env.loss_scalar(t, v, arm), abs=1e-12)
        # and at counterfactual values too: cross-learning needs the whole map
        for v2 in gen.random(3):
            assert fn.eval(v2) == pytest.approx(
                auction_loss(v2, env.bids[arm], env.payments[t]), abs=1e-12)


def test_auction_feedback_carries_win_bit_only():
    # two payment sequences with identical win outcomes for every (t, arm)
    # yield identical feedback objects: the learner can't see m beyond the bit
    values = np.full(4, 0.9)
    pay_a = np.array([0.10, 0.30, 0.55, 0.80])
    pay_b = np.array([0.05, 0.35, 0.51, 0.76])
    env_a = AuctionEnv(values, pay_a, n_arms=5)
    env_b = AuctionEnv(values, pay_b, n_arms=5)
    for t in range(4):
        for arm in range(5):
            wins_a = env_a.bids[arm] >= pay_a[t]
            wins_b = env_b.bids[arm] >= pay_b[t]
            if wins_a != wins_b:
                continue
            fa, fb = env_a.reveal(t, arm), env_b.reveal(t, arm)
            assert np.array_equal(fa.coef, fb.coef)


def test_auction_default_grid_size():
    env = AuctionEnv.generate(1000, RngStream(0, 0))
    assert env.n_arms == math.ceil(1000 ** (1.0 / 3.0))
    assert np.allclose(env.bids, np.arange(env.n_arms) / env.n_arms)


def test_auction_grouping_modes():
    cont = AuctionEnv.generate(64, RngStream(1, 0))
    assert cont.grouping == "round"
    atoms = [0.25, 0.75]
    disc = AuctionEnv.generate(
        64, RngStream(1, 0),
        values={"kind": "discrete", "atoms": atoms, "probs": [1, 1]})
    assert disc.grouping == "context"
    assert set(np.unique(disc.values)) <= set(atoms)


def test_payment_processes():
    periodic = AuctionEnv.generate(
        10, RngStream(0, 0), payments={"kind": "periodic", "pattern": [0.2, 0.6]})
    assert np.allclose(periodic.payments, np.tile([0.2, 0.6], 5))
    disc = AuctionEnv.generate(
        400, RngStream(0, 0),
        payments={"kind": "iid_discrete", "atoms": [0.3, 0.7], "probs": [3, 1]})
    assert set(np.unique(disc.payments)) == {0.3, 0.7}
    frac = float(np.mean(disc.payments == 0.3))
    assert abs(frac - 0.75) < 4 * math.sqrt(0.75 * 0.25 / 400)
    window = AuctionEnv.generate(
        600, RngStream(0, 0),
        payments={"kind": "iid_uniform", "lo": 0.25, "hi": 1.0})
    assert window.payments.min() >= 0.25 and window.payments.max() <= 1.0
    with pytest.raises(EnvError):
        AuctionEnv.generate(10, RngStream(0, 0), payments={"kind": "nope"})


def test_hindsight_regret_single_context():
    # one context, arm 0 always 0.1 and arm 1 always 0.9; playing arm 1 for
    # three rounds loses 2.7 against a comparator of 0.3
    tensor = np.tile(np.array([[0.1], [0.9]]), (3, 1, 1))
    env = TabularEnv.from_tensor(tensor, np.ones(1), RngStream(0, 0))
    history = [(0, 1)] * 3
    assert hindsight_regret(history, env) == pytest.approx(2.4)
    assert hindsight_regret([(0, 0)] * 3, env) == pytest.approx(0.0)


def test_hindsight_regret_matches_enumeration():
    # brute force over all K^C mappings on a small random instance
    rng = RngStream(9, 0)
    tensor = rng.gen.random((20, 3, 3))
    env = TabularEnv.from_tensor(tensor, np.ones(3) / 3, RngStream(1, 0))
    gen = np.random.default_rng(4)
    history = [(env.context(t), int(gen.integers(3))) for t in range(20)]
    played = sum(env.loss_scalar(t, c, a) for t, (c, a) in enumerate(history))
    best = math.inf
    for mapping in product(range(3), repeat=3):
        tot = sum(env.loss_scalar(t, c, mapping[c]) for t, (c, _) in enumerate(history))
        best = min(best, tot)
    assert hindsight_regret(history, env) == pytest.approx(played - best, abs=1e-9)


def test_regret_tracker_streaming_equals_batch():
    env = AuctionEnv.generate(200, RngStream(5, 0))
    gen = np.random.default_rng(2)
    tracker = RegretTracker(env)
    history = []
    for t in range(200):
        c = env.context(t)
        a = int(gen.integers(env.n_arms))
        tracker.update(t, c, a)
        history.append((c, a))
    assert tracker.regret() == pytest.approx(hindsight_regret(history, env))
    # continuous values: comparator is the per-round minimum
    assert tracker.regret() >= 0.0


def test_regret_tracker_respects_active_sets():
    tensor = np.zeros((4, 2, 1))
    tensor[:, 0, 0] = 0.0
    tensor[:, 1, 0] = 0.5
    active = [np.array([False, True])]
    env = TabularEnv.from_tensor(tensor, np.ones(1), RngStream(0, 0),
                                 active=active)
    # arm 0 is better but inactive, so playing arm 1 is optimal in hindsight
    assert hindsight_regret([(0, 1)] * 4, env) == pytest.approx(0.0)


def test_synthetic_structure():
    env = TabularEnv.synthetic(6, 3, 500, RngStream(12, 0), gap=0.5, noise=0.1)
    assert env.n_contexts == 6 and env.n_arms == 3 and env.horizon == 500
    for c in range(6):
        col = env._mu[:, c]
        assert col[c % 3] == pytest.approx(0.25)
        off = np.delete(col, c % 3)
        assert np.allclose(off, 0.75)
    # losses stay in [0, 1] including noise
    for t in range(0, 500, 50):
        for c in range(6):
            col = env.loss_column(t, c)
            assert col.min() >= 0.0 and col.max() <= 1.0
    with pytest.raises(EnvError):
        TabularEnv.synthetic(4, 2, 100, RngStream(0, 0), gap=1.5)
    with pytest.raises(EnvError):
        TabularEnv.synthetic(4, 2, 100, RngStream(0, 0), gap=0.8, noise=0.2)


def test_from_tensor_validation():
    with pytest.raises(EnvError):
        TabularEnv.from_tensor(np.zeros((3, 2)), np.ones(2), RngStream(0, 0))
    bad = np.zeros((3, 2, 2))
    bad[0, 0, 0] = 1.5
    with pytest.raises(EnvError):
        TabularEnv.from_tensor(bad, np.ones(2) / 2, RngStream(0, 0))
    bad[0, 0, 0] = np.nan
    with pytest.raises(EnvError, match=r"\[0, 1\]"):
        TabularEnv.from_tensor(bad, np.ones(2) / 2, RngStream(0, 0))
    with pytest.raises(EnvError):
        TabularEnv.from_tensor(np.zeros((3, 2, 2)), np.ones(3) / 3, RngStream(0, 0))


def test_from_tensor_normalises_nu_for_known_nu_and_audit():
    tensor = np.random.default_rng(4).random((200, 3, 4))
    env = TabularEnv.from_tensor(tensor, [1, 1, 1, 1], RngStream(0, 0))
    oracle = env.known_nu_oracle()
    assert oracle is env.context_space and oracle.weights.tolist() == [0.25] * 4
    acc = make_accumulator(env.acc_kind, env.n_arms, env.n_contexts)
    learner = KnownNuLearner([acc], [oracle], known_nu_rate(env.n_arms, env.horizon),
                             [RngStream(0, 2)], active=[env.active_mask])
    for t in range(env.horizon):
        learner.step(env.context(t), lambda a: env.reveal(t, a))
    assert acc.version == env.horizon
    params = with_overrides(tune_parameters(env.n_arms, env.horizon), L=20, unsafe=True)
    records = audit_run(env, params, 0)
    # epochs 2 to 10, and epoch 11, opened as the horizon ends
    assert [rec.epoch for rec in records] == list(range(2, 12))
    for rec in records:
        # exact observation frequencies: half of a distribution averaged over nu
        assert abs(rec.freq_true.sum() - 0.5) < 1e-12
    for nu in ([1, 1, 1], [1, -1, 1, 1], [0, 0, 0, 0], "foo"):
        with pytest.raises(EnvError, match="nu"):
            TabularEnv.from_tensor(tensor, nu, RngStream(0, 0))


def test_from_csv_roundtrip(tmp_path):
    gen = np.random.default_rng(8)
    tensor = gen.random((5, 2, 3))
    path = tmp_path / "losses.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "k", "c", "value"])
        for t in range(5):
            for k in range(2):
                for c in range(3):
                    w.writerow([t, k, c, repr(float(tensor[t, k, c]))])
    env = TabularEnv.from_csv(path, np.ones(3) / 3, RngStream(2, 0))
    for t in range(5):
        for k in range(2):
            for c in range(3):
                assert env.loss_scalar(t, c, k) == tensor[t, k, c]


def test_from_csv_missing_entry(tmp_path):
    path = tmp_path / "sparse.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([0, 0, 0, 0.5])
        w.writerow([1, 1, 1, 0.5])
    with pytest.raises(EnvError):
        TabularEnv.from_csv(path, np.ones(2) / 2, RngStream(0, 0))


# a header and every (t, k, c) of a 2 x 2 x 1 tensor, on lines 1 to 5
CSV_ROWS = "t,k,c,value\n0,0,0,0.5\n0,1,0,0.25\n1,0,0,0.75\n1,1,0,1.0\n"


@pytest.mark.parametrize("row, match", [
    ("-1,0,0,0.9", "nonnegative integers"),
    ("0.5,0,0,0.3", "nonnegative integers"),
    ("0,1.5,0,0.3", "nonnegative integers"),
    ("0,0", "expected t,k,c,value"),
    ("0,0,1,abc", "value must be a number"),
    ("1,1,0,0.5", "duplicate"),
], ids=["negative_t", "fractional_t", "fractional_k", "short", "text_value", "duplicate"])
def test_from_csv_names_the_line_of_a_bad_row(tmp_path, row, match):
    path = tmp_path / "losses.csv"
    path.write_text(CSV_ROWS + row + "\n")
    with pytest.raises(EnvError, match=f"line 6: .*{match}"):
        TabularEnv.from_csv(path, np.ones(1), RngStream(0, 0))
    path.write_text(CSV_ROWS)
    env = TabularEnv.from_csv(path, np.ones(1), RngStream(0, 0))
    assert [env.loss_scalar(t, 0, k) for t in (0, 1) for k in (0, 1)] == [0.5, 0.25, 0.75, 1.0]


def test_subset_mask_roundtrip():
    for bits in (1, 5, 12, 31):
        mask = subset_to_mask(bits, 5)
        assert int((1 << np.arange(5))[mask].sum()) == bits


def test_sleeping_env_basics():
    env = SleepingEnv.generate(300, 4, RngStream(6, 0))
    for t in range(0, 300, 17):
        ctx = env.context(t)
        mask = env.active_mask(ctx)
        assert mask.any()
        k = int(np.flatnonzero(mask)[0])
        fn = env.reveal(t, k)
        # context-independent: the constant function matches the table
        assert fn.eval(ctx) == pytest.approx(env.losses[t, k])
        assert fn.eval(999) == pytest.approx(env.losses[t, k])
        asleep = np.flatnonzero(~mask)
        if asleep.size:
            with pytest.raises(EnvError):
                env.reveal(t, int(asleep[0]))


def test_envs_are_freed_without_the_cycle_collector():
    # a reference cycle would keep an env's loss arrays alive until the
    # cycle collector runs, raising the peak memory of a grid of runs
    envs = [SleepingEnv.generate(50, 6, RngStream(0, 0)),
            SleepingEnv.generate(50, 3, RngStream(0, 0), availability={
                "kind": "categorical", "subsets": [[0], [1, 2]], "probs": [1, 1]}),
            TabularEnv.synthetic(4, 3, 50, RngStream(0, 0)),
            AuctionEnv.generate(50, RngStream(0, 0), values={
                "kind": "discrete", "atoms": [0.2, 0.7], "probs": [1, 1]})]
    refs = [weakref.ref(env) for env in envs]
    gc.disable()
    try:
        del envs
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def test_sleeping_subset_distribution_exact():
    probs = np.array([0.5, 0.8, 0.3])
    masks, p = SleepingEnv._bernoulli_subset_probs(probs)
    assert masks.size == 7 and p.sum() == pytest.approx(1.0)
    # the all-arms subset has probability 0.5 * 0.8 * 0.3 renormalized by
    # the probability that at least one arm is awake
    norm = 1.0 - 0.5 * 0.2 * 0.7
    assert p[masks == 7][0] == pytest.approx(0.5 * 0.8 * 0.3 / norm)
    env = SleepingEnv.generate(4000, 3, RngStream(4, 0),
                               availability={"kind": "bernoulli", "probs": probs.tolist()})
    oracle = env.known_nu_oracle()
    assert oracle is env.context_space
    assert oracle.contexts.tolist() == masks.tolist()
    assert oracle.weights.tobytes() == p.tobytes()
    counts = np.bincount(env.subsets, minlength=8)[1:]
    emp = counts / counts.sum()
    assert np.max(np.abs(emp - p)) < 0.03


@pytest.mark.parametrize("make", [
    lambda: TabularEnv.synthetic(4, 3, 10, RngStream(1, 0)),
    lambda: TabularEnv.synthetic(4, 3, 10, RngStream(1, 0), active=[
        [1, 1, 1], [1, 0, 1], [0, 1, 1], [1, 1, 0]]),
    lambda: TabularEnv.from_tensor(np.full((10, 3, 4), 0.5), np.ones(4), RngStream(1, 0)),
    lambda: AuctionEnv.generate(10, RngStream(1, 0), n_arms=3),
    lambda: SleepingEnv.generate(10, 3, RngStream(1, 0), availability={
        "kind": "categorical", "subsets": [[0, 1, 2]], "probs": [1.0]}),
], ids=["tabular", "tabular_active", "tabular_tensor", "auction", "sleeping"])
def test_reveal_rejects_arms_outside_the_arm_range(make):
    env = make()
    K = env.n_arms
    for t in range(env.horizon):
        for arm in (-1, K):
            with pytest.raises(EnvError, match="outside"):
                env.reveal(t, arm)


def test_sleeping_categorical_subsets():
    env = SleepingEnv.generate(
        100, 3, RngStream(1, 0),
        availability={"kind": "categorical", "subsets": [[0, 1], [2]],
                      "probs": [0.5, 0.5]})
    assert set(np.unique(env.subsets)) <= {3, 4}
    with pytest.raises(EnvError):
        SleepingEnv.generate(10, 2, RngStream(0, 0),
                             availability={"kind": "categorical",
                                           "subsets": [[]], "probs": [1.0]})
    with pytest.raises(EnvError, match="all zero"):
        SleepingEnv.generate(10, 2, RngStream(0, 0),
                             availability={"kind": "bernoulli", "probs": [0.0, 0.0]})


def test_sleeping_hindsight_uses_available_best():
    # arm 0 best overall but asleep in subset {1}: comparator picks arm 1 there
    losses = np.array([[0.0, 0.4], [0.0, 0.4], [0.0, 0.4], [0.0, 0.4]])
    subsets = np.array([3, 3, 2, 2])
    env = SleepingEnv(losses, subsets)
    history = [(3, 0), (3, 0), (2, 1), (2, 1)]
    assert hindsight_regret(history, env) == pytest.approx(0.0)
    history_bad = [(3, 1), (3, 1), (2, 1), (2, 1)]
    assert hindsight_regret(history_bad, env) == pytest.approx(0.8)


def test_env_reproducible_from_seed():
    a = AuctionEnv.generate(200, RngStream(42, 0))
    b = AuctionEnv.generate(200, RngStream(42, 0))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.payments, b.payments)
    c = AuctionEnv.generate(200, RngStream(43, 0))
    assert not np.array_equal(a.values, c.values)
