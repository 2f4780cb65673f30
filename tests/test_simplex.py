import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crosslearn.accumulator import TABULAR, make_accumulator
from crosslearn.baselines import KnownNuLearner, PerContextExp3
from crosslearn.learner import CrossLearner, SpaceTable, tune_parameters
from crosslearn.simplex import (
    ContextSpace,
    RngStream,
    SimplexError,
    ftrl_weights,
    ftrl_weights_batch,
    pairwise_sum,
    sample_index,
    space_masks,
)


def test_ftrl_uniform_on_zero_losses():
    w = ftrl_weights(np.multiply(np.zeros(5), -0.3))
    assert np.allclose(w, 0.2)


def test_ftrl_two_arm_example():
    # cum losses (0, ln2/eta) puts odds 2:1 on the first arm
    eta = 0.05
    w = ftrl_weights(np.multiply([0.0, math.log(2.0) / eta], -eta))
    assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_ftrl_shift_invariance():
    gen = np.random.default_rng(7)
    for _ in range(50):
        z = gen.normal(size=8) * gen.uniform(1, 100)
        w1 = np.asarray(ftrl_weights(np.multiply(z, -0.17)))
        w2 = np.asarray(ftrl_weights(np.multiply(z + gen.uniform(-1e4, 1e4), -0.17)))
        assert np.max(np.abs(w1 - w2)) < 1e-12


def test_ftrl_sums_to_one_fuzz():
    gen = np.random.default_rng(11)
    for _ in range(200):
        n = int(gen.integers(2, 50))
        z = gen.uniform(-1e6, 1e6, n)
        eta = float(gen.uniform(1e-6, 2.0))
        w = np.asarray(ftrl_weights(np.multiply(z, -eta)))
        assert abs(w.sum() - 1.0) < 1e-12
        assert w.min() >= 0.0


def test_ftrl_monotone_in_loss():
    # heavier accumulated loss never gets more weight
    gen = np.random.default_rng(3)
    for _ in range(100):
        z = gen.uniform(0, 30, 6)
        w = np.asarray(ftrl_weights(np.multiply(z, -0.4)))
        order = np.argsort(z)
        assert np.all(np.diff(w[order]) <= 1e-15)


def test_ftrl_mask_zeroes_inactive():
    mask = np.array([True, False, True, False])
    w = np.asarray(ftrl_weights(np.multiply([1.0, 0.0, 2.0, 0.0], -0.5), mask))
    assert w[1] == 0.0 and w[3] == 0.0
    assert abs(w.sum() - 1.0) < 1e-12
    with pytest.raises(SimplexError):
        ftrl_weights(np.zeros(4), np.zeros(4, dtype=bool))


# Terms of every kind a softmax row sum meets and then some: zeros of
# both signs, subnormals, exact 1.0 and finite values of any magnitude
# whose sum cannot overflow at 1 100 terms.
_TERMS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-310, -2.5e-320]),
                   st.floats(-1e300, 1e300))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 1100), elements=_TERMS))
# the edges of the three branches: in order below 8 terms, eight running
# sums from 8 to 128, split in halves above
@example(np.ones(7)).via("below 8")
@example(np.ones(8)).via("8")
@example(np.full(128, 0.1)).via("128")
@example(np.full(129, 0.1)).via("129")
@example(np.full(1100, 1 / 3)).via("1100")
@example(np.full(16, -0.0)).via("a zero sum's sign")
def test_pairwise_sum_adds_in_numpys_order(a):
    """pairwise_sum of a contiguous float64 array's floats has the bits of
    np.add.reduce, the order the one-row softmax relies on."""
    assert a.flags.c_contiguous
    assert pairwise_sum(a.tolist()).hex() == float(np.add.reduce(a)).hex()


def test_pairwise_sum_matches_on_every_length_up_to_1100():
    gen = np.random.default_rng(17)
    for n in range(1, 1101):
        a = np.exp(gen.normal(0, 20, n))
        a[gen.random(n) < 0.1] = 0.0
        a[gen.random(n) < 0.05] = 1.0
        assert pairwise_sum(a.tolist()) == np.add.reduce(a), n


def test_ftrl_batch_matches_single():
    gen = np.random.default_rng(23)
    z = gen.uniform(0, 50, size=(40, 6))
    masks = gen.random((40, 6)) < 0.7
    masks[np.arange(40), gen.integers(0, 6, 40)] = True  # keep rows nonempty
    exponents = np.where(masks, np.multiply(z, -0.21), -np.inf)
    out = ftrl_weights_batch(exponents)
    for i in range(40):
        row = ftrl_weights(np.multiply(z[i], -0.21), masks[i])
        assert np.asarray(row).tobytes() == out[i].tobytes(), i


def test_sample_index_frequencies():
    # 10^6 draws, each arm count within 4 binomial standard deviations
    gen = np.random.default_rng(5)
    probs = np.array([0.5, 0.25, 0.125, 0.125])
    n = 1_000_000
    counts = np.bincount(
        [sample_index(probs, gen) for _ in range(n)], minlength=4
    )
    sd = np.sqrt(n * probs * (1 - probs))
    assert np.all(np.abs(counts - n * probs) <= 4 * sd)


def test_sample_index_never_zero_weight():
    gen = np.random.default_rng(9)
    probs = np.array([0.0, 1.0, 0.0])
    for _ in range(1000):
        assert sample_index(probs, gen) == 1


def test_rng_stream_deterministic():
    a = RngStream(42, 1).gen.random(5)
    b = RngStream(42, 1).gen.random(5)
    assert np.array_equal(a, b)


def test_rng_streams_independent():
    # distinct stream ids give distinct sequences from one seed
    a = RngStream(42, 0).gen.random(5)
    b = RngStream(42, 1).gen.random(5)
    assert not np.array_equal(a, b)


def test_context_space_rejects_weights_that_are_not_a_distribution():
    for bad in ([np.nan, 1.0], [-0.5, 1.5], [0.5, 0.6], [1.0]):
        with pytest.raises(SimplexError):
            ContextSpace(np.arange(2), weights=bad)
    space = ContextSpace(np.arange(2), weights=[0.25, 0.75])
    assert space.weights.dtype == float and space.weights.tolist() == [0.25, 0.75]
    assert ContextSpace(np.arange(2)).weights is None


def test_masks_that_are_not_k_booleans_are_rejected():
    # a length-1 mask used to broadcast to every arm: uniform over all 3
    exp3 = PerContextExp3(3, RngStream(0, 0), active=lambda c: np.array([True]))
    with pytest.raises(SimplexError, match="3 booleans"):
        exp3.distribution(0)
    with pytest.raises(SimplexError, match="3 booleans"):
        ftrl_weights(np.zeros(3), np.ones((3, 1), dtype=bool))
    # a list of K booleans is a mask like any other
    assert ftrl_weights(np.zeros(3), [True, False, True]) == [0.5, 0.0, 0.5]
    space = ContextSpace(np.arange(3))
    for active, context in ((lambda c: np.array([True]), 0),
                            (lambda c: None if c < 2 else np.ones(4, dtype=bool), 2),
                            (lambda c: [1, 0, 2] if c == 1 else None, 1),
                            (lambda c: [0.5, 1.0, 1.0], 0),
                            (lambda c: np.ones((3, 1), dtype=bool), 0),
                            (lambda c: np.ones((1, 3), dtype=bool), 0)):
        with pytest.raises(SimplexError, match=f"context {context} must be 3 booleans"):
            space_masks(space, active, 3)
        # a learner over a tabulated space checks its masks once, when built
        with pytest.raises(SimplexError, match="3 booleans"):
            CrossLearner(tune_parameters(3, 64), make_accumulator(TABULAR, 3, 3),
                         RngStream(0, 1), active=active, space=space)
    masks = space_masks(space, lambda c: [1, 0, 1] if c == 1 else None, 3)
    assert masks.dtype == bool and not masks.flags.writeable
    assert masks.tolist() == [[True] * 3, [True, False, True], [True] * 3]


def test_a_table_refuses_an_empty_active_set():
    # context 1 has no active arm; masks are checked where they enter a table
    space = ContextSpace(np.arange(3), weights=[0.5, 0.25, 0.25])
    active = lambda c: np.array([c != 1] * 3)  # noqa: E731
    masks = space_masks(space, active, 3)
    acc = make_accumulator(TABULAR, 3, 3)
    with pytest.raises(SimplexError, match="active set of context 1 is empty"):
        SpaceTable(acc, space, masks, 0.5)
    with pytest.raises(SimplexError, match="context 1 is empty"):
        CrossLearner(tune_parameters(3, 64), acc, RngStream(0, 1), active=active, space=space)
    with pytest.raises(SimplexError, match="context 1 is empty"):
        KnownNuLearner([acc], [space], 0.5, [RngStream(0, 2)], active=[active])
    # a context with one active arm plays it with probability 1
    masks = space_masks(space, lambda c: np.array([c != 1, True, c != 1]), 3)
    table = SpaceTable(acc, space, masks, 0.5)
    assert table.weights().tolist() == [[1 / 3] * 3, [0.0, 1.0, 0.0], [1 / 3] * 3]
