import numpy as np
import pytest

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


def test_affine_add_example():
    # weight 2, winning bid b=0.4: loss (1 - (v - 0.4))/2 = 0.7 - 0.5 v
    acc = make_accumulator(AFFINE, 3)
    acc.add(1, 2.0, LinearLoss(AffineAccumulator, [0.7, -0.5]))
    assert acc.coef[1, 0] == pytest.approx(1.4, abs=1e-15)
    assert acc.coef[1, 1] == pytest.approx(-1.0, abs=1e-15)
    assert acc.coef[0, 0] == 0.0 and acc.coef[2, 1] == 0.0
    assert acc.eval_column(0.2)[1] == pytest.approx(1.4 - 0.2, abs=1e-14)


def _replay_oracle(kind, n_arms, n_contexts, adds, probe):
    """Direct weighted sum over the stored (arm, weight, fn) list."""
    out = np.zeros(n_arms)
    for arm, w, fn in adds:
        out[arm] += w * fn.eval(probe)
    return out


def test_linearity_against_replay_oracle():
    gen = np.random.default_rng(1)
    for kind in (TABULAR, AFFINE, CONSTANT):
        n_arms, n_contexts = 4, 6
        acc = make_accumulator(kind, n_arms, n_contexts)
        adds = []
        for _ in range(10_000):
            arm = int(gen.integers(n_arms))
            w = float(gen.uniform(0, 50))
            if kind == TABULAR:
                fn = LinearLoss(TabularAccumulator, gen.random(n_contexts))
            elif kind == AFFINE:
                a = gen.uniform(0, 1)
                b = gen.uniform(-a, 1 - a)
                fn = LinearLoss(AffineAccumulator, [a, b])
            else:
                fn = LinearLoss(ConstantAccumulator, [gen.random()])
            acc.add(arm, w, fn)
            adds.append((arm, w, fn))
        probe = 2 if kind == TABULAR else 0.37
        want = _replay_oracle(kind, n_arms, n_contexts, adds, probe)
        got = acc.eval_column(probe)
        scale = np.abs(want) + 1.0
        assert np.max(np.abs(got - want) / scale) < 1e-9


def test_eval_column_matches_eval():
    gen = np.random.default_rng(2)
    acc = make_accumulator(TABULAR, 3, 5)
    for _ in range(100):
        acc.add(int(gen.integers(3)), gen.uniform(0, 3),
                LinearLoss(TabularAccumulator, gen.random(5)))
    for c in range(5):
        col = acc.eval_column(c)
        for k in range(3):
            assert col[k] == acc.coef[k, c]
    batch = acc.eval_batch(np.array([0, 3, 3]))
    assert batch.shape == (3, 3)
    assert np.array_equal(batch[1], batch[2])


def test_snapshot_immutable_under_later_adds():
    gen = np.random.default_rng(3)
    acc = make_accumulator(AFFINE, 2)
    acc.add(0, 1.0, LinearLoss(AffineAccumulator, [0.5, 0.25]))
    snap = snapshot(acc, eta=0.1)
    before = [snap.eval_column(v).copy() for v in (0.0, 0.5, 1.0)]
    w_before = snap.weights(0.5).copy()
    for _ in range(500):
        acc.add(int(gen.integers(2)), gen.uniform(0, 2),
                LinearLoss(AffineAccumulator, [0.3, 0.1]))
    after = [snap.eval_column(v) for v in (0.0, 0.5, 1.0)]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    assert np.array_equal(w_before, snap.weights(0.5))
    with pytest.raises(ValueError):
        snap.coef[0, 0] = 99.0  # frozen arrays reject writes


def test_snapshot_version_counter():
    acc = make_accumulator(CONSTANT, 2)
    s0 = snapshot(acc, 0.1)
    acc.add(0, 1.0, LinearLoss(ConstantAccumulator, [0.5]))
    acc.add(1, 1.0, LinearLoss(ConstantAccumulator, [0.5]))
    s2 = snapshot(acc, 0.1)
    assert s0.version == 0 and s2.version == 2 and acc.version == 2


def test_structured_state_is_small():
    # affine and constant aggregates must not materialize a context table
    acc = make_accumulator(AFFINE, 7)
    assert acc.coef.shape == (7, 2)
    acc_c = make_accumulator(CONSTANT, 7)
    assert acc_c.coef.shape == (7, 1)
    snap = snapshot(acc, 0.1)
    assert snap.coef.shape == (7, 2)


def test_kind_mismatch_rejected():
    acc = make_accumulator(TABULAR, 2, 3)
    with pytest.raises(AccumulatorError):
        acc.add(0, 1.0, LinearLoss(ConstantAccumulator, [0.5]))
    with pytest.raises(AccumulatorError):
        acc.add(5, 1.0, LinearLoss(TabularAccumulator, np.zeros(3)))
    with pytest.raises(AccumulatorError):
        acc.add(0, -1.0, LinearLoss(TabularAccumulator, np.zeros(3)))
    with pytest.raises(AccumulatorError):
        acc.add(0, np.inf, LinearLoss(TabularAccumulator, np.zeros(3)))
    # a loss of another feature map is refused even when its length fits
    acc2 = make_accumulator(TABULAR, 2, 2)
    with pytest.raises(AccumulatorError):
        acc2.add(0, 1.0, LinearLoss(AffineAccumulator, [0.5, 0.0]))
    with pytest.raises(AccumulatorError):
        make_accumulator(AFFINE, 2).add(0, 1.0, LinearLoss(TabularAccumulator, [0.5, 0.0]))
    assert not acc.coef.any() and not acc2.coef.any() and acc.version == acc2.version == 0


def test_loss_range_validation():
    with pytest.raises(AccumulatorError):
        LinearLoss(TabularAccumulator, np.array([0.5, 1.5]))
    with pytest.raises(AccumulatorError):
        LinearLoss(AffineAccumulator, [0.9, 0.3])  # reaches 1.2 at v=1
    with pytest.raises(AccumulatorError):
        LinearLoss(ConstantAccumulator, [-0.2])
    LinearLoss(AffineAccumulator, [0.9, -0.9])
    LinearLoss(ConstantAccumulator, [1.0])


def test_make_accumulator_requires_contexts_for_tabular():
    with pytest.raises(AccumulatorError):
        make_accumulator(TABULAR, 2)
    with pytest.raises(AccumulatorError):
        make_accumulator("mystery", 2)


def test_kahan_survives_many_tiny_adds():
    # 10^5 adds of 1e-6 with one large add mixed in stays exact to 1e-9 rel
    acc = make_accumulator(CONSTANT, 1)
    acc.add(0, 1e6, LinearLoss(ConstantAccumulator, [1.0]))
    for _ in range(100_000):
        acc.add(0, 1e-6, LinearLoss(ConstantAccumulator, [1.0]))
    want = 1e6 + 0.1
    assert abs(acc.coef[0, 0] - want) / want < 1e-12
