"""Baseline learners: per-context EXP3 (no cross-learning) and the
cross-learning strategy for a known context distribution nu, given as a
ContextSpace whose weights are nu (an env's known_nu_oracle()).

Both expose the same step(context, reveal) interface as CrossLearner so the
harness can drive any of the three interchangeably.
"""

from __future__ import annotations

import math

import numpy as np

from .learner import ParamError, mask_function
from .simplex import BlockUniforms, ftrl_weights, ftrl_weights_batch, sample_index, space_masks

TINY_DENOM = 1e-9


class PerContextExp3:
    """Independent exponential-weights learner per context id.

    Uses only the realized scalar loss of the played arm with standard
    importance weighting, at the anytime rate sqrt(log K / (t_c * K)) where
    t_c counts visits to that context. A context never seen before starts
    from the uniform state, so fresh contexts are played uniformly; a
    context gets a state of its own when it is first played, not when its
    distribution is read. active: None (every arm always active) or a
    callable context -> mask/None, an env's active_mask (ParamError
    otherwise); SimplexError when a mask is not K booleans or is empty.

    A state is [estimates, visits] with the estimates a list of floats;
    their exponents are taken on Python floats, the same IEEE multiply as
    numpy's, and ftrl_weights does the rest.
    """

    def __init__(self, n_arms, rng, active=None):
        self.n_arms = int(n_arms)
        self._gen = BlockUniforms(rng.gen)
        self._mask = mask_function(active)
        self._states = {}
        self._fresh = ([0.0] * self.n_arms, 0)
        self._log_k = math.log(self.n_arms)
        self.fallback_count = 0

    def _weights(self, state, context):
        """The distribution of a state at `context`: the softmax of its
        estimates at the anytime rate over the context's active set."""
        neg_eta = -math.sqrt(self._log_k / ((state[1] + 1) * self.n_arms))
        return ftrl_weights([x * neg_eta for x in state[0]], self._mask(context))

    def distribution(self, context):
        return self._weights(self._states.get(context, self._fresh), context)

    def step(self, context, reveal):
        st = self._states.get(context)
        if st is None:
            st = self._states[context] = [[0.0] * self.n_arms, 0]
        w = self._weights(st, context)
        arm = sample_index(w, self._gen)
        fn = reveal(arm)
        st[0][arm] += fn.eval(context) / w[arm]
        st[1] += 1
        return arm


class KnownNuLearner:
    """Cross-learning with exact importance weights 1/E_{c~nu}[p_t(., k)].

    Maintains one accumulator shared across contexts; each round adds the
    played arm's full loss function with weight 1/E[p_t(., arm)], the
    unbiased normalization available when the context distribution is known.
    Denominators below TINY_DENOM are floored and counted in
    tiny_denominator_count; FTRL keeps every active arm's probability
    positive, so this flags numerical trouble instead of guessing.

    The arms are the accumulator's. space: a ContextSpace with weights, the
    env's known_nu_oracle() (ParamError without weights). active: None
    (every arm always active) or a callable context -> mask/None, an env's
    active_mask (ParamError otherwise); the masks of the probe table are
    read from it once, at construction (simplex.space_masks). Each round
    computes the probe table, the distributions at every context of the
    space, once: the denominators are its nu-average, and a context of the
    space is played from its row, which equals ftrl_weights at the context
    bit for bit. Any other context (a continuous value between quadrature
    nodes) is played from ftrl_weights at the context itself.
    """

    def __init__(self, accumulator, space, eta, rng, active=None):
        self.acc = accumulator
        self.space = space
        self.eta = float(eta)
        self._gen = BlockUniforms(rng.gen)
        self._mask = mask_function(active)
        if space.weights is None:
            raise ParamError("the context space carries no weights")
        self._masks = space_masks(space, active, accumulator.n_arms)
        self.tiny_denominator_count = 0
        self.fallback_count = 0

    def probe_table(self):
        """Current play distributions at every context of the space."""
        space = self.space
        return ftrl_weights_batch(self.acc.eval_batch(space.index), self.eta, self._masks)

    def _denominator(self, arm, expected):
        """Floored E[p(., arm)], from `expected`, E[p] of the current state."""
        denom = float(expected[arm])
        if denom < TINY_DENOM:
            self.tiny_denominator_count += 1
            denom = TINY_DENOM
        return denom

    def step(self, context, reveal):
        space = self.space
        table = self.probe_table()
        expected = space.weights @ table
        rows = space.rows
        row = context if rows is None else rows.get(context)
        if row is None:
            w = ftrl_weights(np.multiply(self.acc.eval_column(context), -self.eta),
                             self._mask(context))
        else:
            w = table[row].tolist()
        arm = sample_index(w, self._gen)
        fn = reveal(arm)
        self.acc.add(arm, 1.0 / self._denominator(arm, expected), fn)
        return arm


def known_nu_rate(n_arms, horizon):
    """Standard exponential-weights rate sqrt(log K / (K * T))."""
    return math.sqrt(math.log(n_arms) / (n_arms * horizon))
