import math

import numpy as np
import pytest

from crosslearn.simplex import (
    ContextSpace,
    RngStream,
    SimplexError,
    ftrl_weights,
    ftrl_weights_batch,
    sample_index,
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
        w1 = ftrl_weights(np.multiply(z, -0.17))
        w2 = ftrl_weights(np.multiply(z + gen.uniform(-1e4, 1e4), -0.17))
        assert np.max(np.abs(w1 - w2)) < 1e-12


def test_ftrl_sums_to_one_fuzz():
    gen = np.random.default_rng(11)
    for _ in range(200):
        n = int(gen.integers(2, 50))
        z = gen.uniform(-1e6, 1e6, n)
        eta = float(gen.uniform(1e-6, 2.0))
        w = ftrl_weights(np.multiply(z, -eta))
        assert abs(w.sum() - 1.0) < 1e-12
        assert w.min() >= 0.0


def test_ftrl_monotone_in_loss():
    # heavier accumulated loss never gets more weight
    gen = np.random.default_rng(3)
    for _ in range(100):
        z = gen.uniform(0, 30, 6)
        w = ftrl_weights(np.multiply(z, -0.4))
        order = np.argsort(z)
        assert np.all(np.diff(w[order]) <= 1e-15)


def test_ftrl_mask_zeroes_inactive():
    mask = np.array([True, False, True, False])
    w = ftrl_weights(np.multiply([1.0, 0.0, 2.0, 0.0], -0.5), mask)
    assert w[1] == 0.0 and w[3] == 0.0
    assert abs(w.sum() - 1.0) < 1e-12
    with pytest.raises(SimplexError):
        ftrl_weights(np.zeros(4), np.zeros(4, dtype=bool))


def test_ftrl_batch_matches_single():
    gen = np.random.default_rng(23)
    z = gen.uniform(0, 50, size=(40, 6))
    masks = gen.random((40, 6)) < 0.7
    masks[np.arange(40), gen.integers(0, 6, 40)] = True  # keep rows nonempty
    out = ftrl_weights_batch(z, 0.21, masks)
    for i in range(40):
        assert np.allclose(out[i], ftrl_weights(np.multiply(z[i], -0.21), masks[i]), atol=1e-14)


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
