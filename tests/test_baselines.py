import json
from pathlib import Path

import numpy as np
import pytest

from crosslearn.accumulator import (
    CONSTANT,
    TABULAR,
    AffineAccumulator,
    ConstantAccumulator,
    LinearLoss,
    TabularAccumulator,
    make_accumulator,
)
from crosslearn.baselines import (
    KnownNuLearner,
    PerContextExp3,
    known_nu_rate,
)
from crosslearn.envs import AuctionEnv, TabularEnv, build_env
from crosslearn.harness import ENV_STREAM, build_algo, run_single
from crosslearn.simplex import ContextSpace, RngStream, SimplexError


def test_exp3_converges_per_context():
    # two contexts with opposite best arms; after 10^4 rounds each context's
    # distribution concentrates on its own winner. The revealed object maps
    # contexts to losses for the played arm: arm 0 is good at context 0.
    algo = PerContextExp3(2, RngStream(0, 3))
    arm_losses = {0: LinearLoss(TabularAccumulator, np.array([0.1, 0.9])),
                  1: LinearLoss(TabularAccumulator, np.array([0.9, 0.1]))}
    gen = np.random.default_rng(1)
    for t in range(10_000):
        c = int(gen.integers(2))
        algo.step(c, lambda arm: arm_losses[arm])
    assert algo.distribution(0)[0] > 0.99
    assert algo.distribution(1)[1] > 0.99


def test_exp3_fresh_context_uniform():
    algo = PerContextExp3(4, RngStream(0, 3))
    assert np.allclose(algo.distribution("never-seen"), 0.25)


def test_exp3_reading_a_distribution_stores_no_state():
    # on continuous auction values nearly every probe is a context never
    # played: reading its distribution must not grow the learner
    algo = PerContextExp3(4, RngStream(0, 3))
    for v in np.linspace(0.0, 1.0, 101).tolist():
        assert algo.distribution(v) == [0.25] * 4
    assert algo._states == {}
    fn = LinearLoss(AffineAccumulator, [0.2, 0.5])
    algo.step(0.5, lambda arm: fn)
    assert list(algo._states) == [0.5]
    played = algo.distribution(0.5)
    assert played != [0.25] * 4
    # the lists handed out are the caller's: writing one moves no state
    played[0] = 9.0
    algo.distribution(0.7)[0] = 9.0
    assert algo.distribution(0.5) != played and algo.distribution(0.7) == [0.25] * 4
    assert list(algo._states) == [0.5]


def test_exp3_keeps_no_state_on_values_that_never_repeat():
    # continuous auction values never repeat (grouping "round"): every round
    # plays the shared uniform state and keeps none, and the checkpoints are
    # those recorded when exp3 kept one state per round; value atoms repeat
    # and keep their states
    data = json.loads((Path(__file__).parent / "data" / "exp3_continuous_auction.json")
                      .read_text())
    spec, horizon = data["env"], data["T"]
    for values, kept in ((None, False), ({"kind": "discrete", "atoms": [0.2, 0.7],
                                          "probs": [1, 1]}, True)):
        env = build_env(dict(spec, values=values), horizon, RngStream(0, ENV_STREAM))
        assert env.grouping == ("context" if kept else "round")
        algo = build_algo("exp3_per_context", env, 0, None)
        for t in range(horizon):
            algo.step(env.context(t), lambda a: env.reveal(t, a))
        assert len(algo._states) == (2 if kept else 0)
    for seed, want in data["checkpoints"].items():
        got = run_single(spec, "exp3_per_context", horizon, int(seed)).checkpoints
        assert [list(cp) for cp in got] == want, seed


def test_exp3_state_isolation():
    # updates at one context never move another context's distribution
    algo = PerContextExp3(3, RngStream(5, 3))
    probe = algo.distribution(1).copy()
    for t in range(500):
        algo.step(0, lambda arm: LinearLoss(TabularAccumulator, np.array([1.0, 0.0, 0.0])))
    assert np.array_equal(algo.distribution(1), probe)
    assert not np.allclose(algo.distribution(0), probe)


def test_exp3_respects_active_sets():
    active = {0: np.array([True, False, True])}
    algo = PerContextExp3(3, RngStream(2, 3), active=lambda c: active[c])
    plays = set()
    fn = LinearLoss(TabularAccumulator, np.array([0.5, 0.5, 0.5]))
    for t in range(200):
        plays.add(algo.step(0, lambda arm: fn))
    assert 1 not in plays and plays == {0, 2}


def test_known_nu_oracle_finite():
    # a finite env's oracle is its context space, which carries nu
    env = TabularEnv.from_tensor(np.full((5, 2, 2), 0.5), [1, 3], RngStream(0, 0))
    space = env.known_nu_oracle()
    assert space is env.context_space and space.weights.tolist() == [0.25, 0.75]
    table = np.array([[0.5, 0.5], [0.1, 0.9]])
    want = 0.25 * table[0] + 0.75 * table[1]
    assert np.allclose(space.weights @ table, want, atol=1e-15)
    with pytest.raises(SimplexError):
        ContextSpace(np.arange(2), weights=np.array([0.5, 0.6]))


def test_known_nu_oracle_quadrature_uniform():
    # E[v] over U[0,1] via the CDF-cell rule, exact to quadrature resolution
    env = AuctionEnv.generate(64, RngStream(0, 0))
    assert env.context_space is None
    space = env.known_nu_oracle()
    assert len(space) == 512 and not space.ids
    got = float(space.weights @ space.contexts)
    assert got == pytest.approx(0.5, abs=2e-3)
    assert space.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_known_nu_denominator_uniform_state():
    # with an untouched accumulator the play probability is 1/K under every
    # context, so the importance denominator is exactly 1/K
    K = 4
    acc = make_accumulator(TABULAR, K, 3)
    space = ContextSpace(np.arange(3), weights=np.array([0.2, 0.3, 0.5]))
    algo = KnownNuLearner([acc], space, eta=0.01, rngs=[RngStream(0, 2)])
    denoms = algo.space.weights @ algo.probe_table()[0]
    assert np.allclose(denoms, 0.25, atol=1e-12)


def test_known_nu_point_mass_matches_single_context():
    # nu concentrated on context 1 means the denominator equals p(1, arm)
    K = 3
    acc = make_accumulator(TABULAR, K, 2)
    acc.add(0, 5.0, LinearLoss(TabularAccumulator, np.array([0.0, 1.0])))
    space = ContextSpace(np.arange(2), weights=np.array([0.0, 1.0]))
    algo = KnownNuLearner([acc], space, eta=0.3, rngs=[RngStream(1, 2)])
    table = algo.probe_table()[0]
    denoms = algo.space.weights @ table
    assert np.allclose(denoms, table[1], atol=1e-14)


def test_known_nu_tiny_denominator_flagged():
    # each seed counts its own floored denominators, whichever seeds share
    # its learner: only the second seed's accumulator is tilted
    K = 2
    healthy, tilted = make_accumulator(CONSTANT, K), make_accumulator(CONSTANT, K)
    # extreme tilt: arm 1's probability underflows to ~0 everywhere
    tilted.add(1, 1e9, LinearLoss(ConstantAccumulator, [1.0]))
    space = ContextSpace(np.arange(1), weights=np.array([1.0]))
    for accs in ([tilted], [healthy, tilted]):
        algo = KnownNuLearner(accs, space, eta=1.0,
                              rngs=[RngStream(2, 2) for _ in accs])
        expected = algo.space.weights @ algo.probe_table()
        assert algo.tiny_denominator_count == [0] * len(accs)
        got = [[algo._denominator(r, arm, expected[r]) for arm in range(K)]
               for r in range(len(accs))]
        # arm 1 of the tilted seed, the last, is the one floored and counted
        assert got[-1][1] == 1e-9
        assert algo.tiny_denominator_count == [0] * (len(accs) - 1) + [1]
        # every other denominator is the unfloored E[p(., arm)] of its own
        # seed: the tilted seed's arm 0 holds nearly all the mass, and the
        # healthy seed's untouched arms are uniform
        for r in range(len(accs)):
            for arm in range(K):
                if (r, arm) != (len(accs) - 1, 1):
                    assert got[r][arm] == float(expected[r][arm])
        assert got[-1][0] > 0.5
        for arm in range(K):
            assert all(got[r][arm] == pytest.approx(0.5, abs=1e-12)
                       for r in range(len(accs) - 1))


def test_known_nu_learns():
    acc = make_accumulator(TABULAR, 2, 2)
    space = ContextSpace(np.arange(2), weights=np.array([0.5, 0.5]))
    algo = KnownNuLearner([acc], space, eta=known_nu_rate(2, 4000),
                          rngs=[RngStream(3, 2)])
    arm_losses = {0: LinearLoss(TabularAccumulator, np.array([0.1, 0.1])),
                  1: LinearLoss(TabularAccumulator, np.array([0.9, 0.9]))}
    gen = np.random.default_rng(7)
    counts = np.zeros(2)
    for t in range(4000):
        c = int(gen.integers(2))
        arm = algo.step(c, lambda a: arm_losses[a])
        if t >= 3000:
            counts[arm] += 1
    assert counts[0] > counts[1]


def test_known_nu_rate_value():
    assert known_nu_rate(4, 10_000) == pytest.approx(
        np.sqrt(np.log(4) / (4 * 10_000)), rel=1e-12)
