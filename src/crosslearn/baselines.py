"""Baseline learners: per-context EXP3 (no cross-learning) and the
cross-learning strategy for a known context distribution.

Both expose the same step(context, reveal) interface as CrossLearner so the
harness can drive any of the three interchangeably.
"""

from __future__ import annotations

import math

import numpy as np

from .simplex import (BlockUniforms, batch_index, ftrl_weights, ftrl_weights_batch, mask_lookup,
                      sample_index)

TINY_DENOM = 1e-9
QUADRATURE_NODES = 512


class PerContextExp3:
    """Independent exponential-weights learner per context id.

    Uses only the realized scalar loss of the played arm with standard
    importance weighting, at the anytime rate sqrt(log K / (t_c * K)) where
    t_c counts visits to that context. A context never seen before starts
    from the uniform state, so fresh contexts are played uniformly.
    """

    def __init__(self, n_arms, rng, active=None):
        self.n_arms = int(n_arms)
        self._gen = BlockUniforms(rng.gen)
        self._mask = mask_lookup(active)
        self._states = {}
        self._log_k = math.log(self.n_arms)
        self.fallback_count = 0

    def _state(self, context):
        st = self._states.get(context)
        if st is None:
            st = [np.zeros(self.n_arms), 0]
            self._states[context] = st
        return st

    def distribution(self, context):
        cum, visits = self._state(context)
        eta = math.sqrt(self._log_k / ((visits + 1) * self.n_arms))
        return ftrl_weights(cum, eta, self._mask(context))

    def step(self, context, reveal, t=None):
        st = self._state(context)
        cum, visits = st
        eta = math.sqrt(self._log_k / ((visits + 1) * self.n_arms))
        w = ftrl_weights(cum, eta, self._mask(context))
        arm = sample_index(w.tolist(), self._gen)
        fn = reveal(arm)
        cum[arm] += fn.eval(context) / w[arm]
        st[1] = visits + 1
        return arm


class KnownNuOracle:
    """Exact expectation E_{c~nu}[p(c, k)] over a fixed probe set.

    Finite context spaces use their contexts (an env's `context_space`)
    with their exact nu weights; scalar value distributions use a fixed
    quadrature grid whose cell weights are CDF differences (exact per
    cell). probes/weights/masks are aligned arrays; masks is None when
    every arm is always active, else row i is the active set at probe i.
    `index` is the batch_index of the probes: the slice 0:n when they are
    the context ids 0..n-1, so a tabular probe table reads the accumulator
    through a view.
    """

    def __init__(self, probes, weights, masks=None):
        self.probes = np.asarray(probes)
        self.index = batch_index(self.probes)
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.min() < 0 or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("probe weights must form a distribution")
        self.masks = masks

    @classmethod
    def quadrature(cls, cdf):
        """Grid oracle for a scalar context on [0, 1] with the given CDF,
        over QUADRATURE_NODES equal cells."""
        edges = np.linspace(0.0, 1.0, QUADRATURE_NODES + 1)
        nodes = 0.5 * (edges[:-1] + edges[1:])
        cw = np.diff(cdf(edges))
        total = cw.sum()
        if total <= 0:
            raise ValueError("CDF carries no mass on [0, 1]")
        return cls(nodes, cw / total)

    def expectation(self, p_table):
        """nu-average of an (n_probes, K) table of per-context distributions."""
        return self.weights @ p_table


class KnownNuLearner:
    """Cross-learning with exact importance weights 1/E_{c~nu}[p_t(., k)].

    Maintains one accumulator shared across contexts; each round adds the
    played arm's full loss function with weight 1/E[p_t(., arm)], the
    unbiased normalization available when the context distribution is known.
    Denominators below TINY_DENOM are floored and counted in
    tiny_denominator_count; FTRL keeps every active arm's probability
    positive, so this flags numerical trouble instead of guessing.

    When the context is a probe with the learner's own active set (finite
    supports), a round computes the probe table once: the played
    distribution is that probe's row, which equals ftrl_weights at the
    context bit for bit, and the denominator comes from the same table.
    Any other context is played from ftrl_weights at the context itself.
    """

    def __init__(self, n_arms, accumulator, oracle, eta, rng, active=None):
        self.n_arms = int(n_arms)
        self.acc = accumulator
        self.oracle = oracle
        self.eta = float(eta)
        self._gen = BlockUniforms(rng.gen)
        self._mask = mask_lookup(active)
        # probe -> its first probe-table row computed with the learner's
        # active set (no mask and an all-True mask give the same bits)
        self._rows = {}
        full = np.ones(self.n_arms, dtype=bool)
        for i, probe in enumerate(oracle.probes.tolist()):
            mine = self._mask(probe)
            theirs = None if oracle.masks is None else oracle.masks[i]
            if np.array_equal(full if mine is None else mine,
                              full if theirs is None else theirs):
                self._rows.setdefault(probe, i)
        self.tiny_denominator_count = 0
        self.fallback_count = 0

    def probe_table(self):
        """Current play distributions at every oracle probe context."""
        cum = self.acc.eval_batch(self.oracle.index)
        return ftrl_weights_batch(cum, self.eta, self.oracle.masks)

    def distribution(self, context):
        return ftrl_weights(self.acc.eval_column(context), self.eta, self._mask(context))

    def expected_play_probs(self):
        """E_{c~nu}[p(c, k)] for every arm at the current state."""
        return self.oracle.expectation(self.probe_table())

    def _denominator(self, arm, expected=None):
        """Floored E[p(., arm)], from `expected` (E[p] of the current state)
        when the caller has it."""
        if expected is None:
            expected = self.expected_play_probs()
        denom = float(expected[arm])
        if denom < TINY_DENOM:
            self.tiny_denominator_count += 1
            denom = TINY_DENOM
        return denom

    def step(self, context, reveal, t=None):
        row = self._rows.get(context)
        if row is None:
            w = ftrl_weights(self.acc.eval_column(context), self.eta, self._mask(context))
            expected = None
        else:
            table = self.probe_table()
            w, expected = table[row], self.oracle.expectation(table)
        arm = sample_index(w.tolist(), self._gen)
        fn = reveal(arm)
        self.acc.add(arm, 1.0 / self._denominator(arm, expected), fn)
        return arm


def known_nu_rate(n_arms, horizon):
    """Standard exponential-weights rate sqrt(log K / (K * T))."""
    return math.sqrt(math.log(n_arms) / (n_arms * horizon))
