"""Baseline learners: per-context EXP3 (no cross-learning) and the
cross-learning strategy for a known context distribution nu, given as a
ContextSpace whose weights are nu (an env's known_nu_oracle()).

Both expose the same step(context, reveal) interface as CrossLearner so the
harness can drive any of the three interchangeably.
"""

from __future__ import annotations

import math

import numpy as np

from .learner import ParamError, SpaceTable, mask_function
from .simplex import BlockUniforms, ftrl_weights, ftrl_weights_batch, sample_index, space_masks

TINY_DENOM = 1e-9


class PerContextExp3:
    """Independent exponential-weights learner per context id.

    Uses only the realized scalar loss of the played arm with standard
    importance weighting, at the anytime rate sqrt(log K / (t_c * K)) where
    t_c counts visits to that context. A context never seen before starts
    from the uniform state, so fresh contexts are played uniformly; a
    context gets a state of its own when it is first played, not when its
    distribution is read. fresh_contexts: no context repeats (an env whose
    grouping is "round", continuous auction values), so every round plays
    from the shared uniform state and no state is kept. active: None (every
    arm always active) or a callable context -> mask/None, an env's
    active_mask (ParamError otherwise); SimplexError when a mask is not K
    booleans or is empty.

    A state is [estimates, visits] with the estimates a list of floats;
    their exponents are taken on Python floats, the same IEEE multiply as
    numpy's, and ftrl_weights does the rest.
    """

    def __init__(self, n_arms, rng, active=None, fresh_contexts=False):
        self.n_arms = int(n_arms)
        self._fresh_contexts = fresh_contexts
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
        if self._fresh_contexts:  # a state kept here would never be read again
            arm = sample_index(self._weights(self._fresh, context), self._gen)
            reveal(arm)
            return arm
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
    """Cross-learning with exact importance weights 1/E_{c~nu}[p_t(., k)],
    for R >= 1 runs of one env spec stepped in lockstep, one per seed.

    Each seed keeps one accumulator shared across contexts; each of its
    rounds adds the played arm's full loss function with weight
    1/E[p_t(., arm)], the unbiased normalization available when the
    context distribution is known. Denominators below TINY_DENOM are
    floored and counted in tiny_denominator_count, a list of one count per
    seed; FTRL keeps every active arm's probability positive, so this
    flags numerical trouble instead of guessing.

    accumulators and rngs are lists of R, one per seed; the space and the
    active sets belong to the env spec, so all R seeds share them. space is
    a ContextSpace with weights, the env's known_nu_oracle() (ParamError
    without weights), and active None (every arm always active) or a
    callable context -> mask/None, the env's active_mask (ParamError
    otherwise). The arms are the accumulators', which must agree on their
    number (ParamError otherwise). The masks of the probe table are read
    once, at construction (simplex.space_masks), into one SpaceTable per
    seed over the space that follows that seed's own adds; each table
    holds its exponents in its slice of one stacked (R, K, n) array.

    step(context, reveal) plays one seed's round: the seeds take turns, 0
    to R-1 in every round. The first turn of a round reads probe_table(),
    one softmax over the stack, and every seed's denominators, one
    nu-average of the stacked tables; a turn then plays a context of the
    space from its seed's table row, which equals ftrl_weights at the
    context bit for bit, and any other context (a continuous value between
    quadrature nodes) from ftrl_weights at the context itself. The turn's
    loss goes to its seed's accumulator, and its seed's table updates the
    played arm's exponents. A lockstep round holds the same bits as a
    round of each seed alone.
    """

    fallback_count = 0  # the known-nu learner never falls back

    def __init__(self, accumulators, space, eta, rngs, active=None):
        if not (type(accumulators) is list and type(rngs) is list):
            raise ParamError("accumulators and streams must be lists, one per seed")
        if not len(accumulators) == len(rngs) >= 1:
            raise ParamError("a seed axis needs one accumulator and stream per seed")
        if getattr(space, "weights", None) is None:
            raise ParamError("the context space carries no weights")
        n_arms = accumulators[0].n_arms
        if any(acc.n_arms != n_arms for acc in accumulators):
            raise ParamError("the seeds' accumulators differ in their number of arms")
        self._mask = mask_function(active)
        masks = space_masks(space, active, n_arms)
        self.space = space
        self.eta = float(eta)
        self._rows = space.rows
        self._z = np.empty((len(accumulators), n_arms, len(space)))
        # what a turn reads of its seed, in seed order
        self._seeds = [(acc, BlockUniforms(r.gen), SpaceTable(acc, space, masks, self.eta, z))
                       for acc, r, z in zip(accumulators, rngs, self._z)]
        self._turn = 0
        self._w = self._expected = None
        self.tiny_denominator_count = [0] * len(accumulators)

    def probe_table(self):
        """Current play distributions at every context of the space, an
        (R, n, K) array."""
        for acc, _, table in self._seeds:
            if table.version != acc.version:
                table.rebuild()
        return ftrl_weights_batch(self._z.swapaxes(1, 2))

    def _denominator(self, r, arm, expected):
        """Seed r's floored E[p(., arm)], from `expected`, its E[p] of the
        current state."""
        denom = float(expected[arm])
        if denom < TINY_DENOM:
            self.tiny_denominator_count[r] += 1
            denom = TINY_DENOM
        return denom

    def step(self, context, reveal):
        r = self._turn
        seeds = self._seeds
        if r == 0:
            self._w = w = self.probe_table()
            self._expected = (self.space.weights @ w).tolist()
        self._turn = (r + 1) % len(seeds)
        acc, gen, table = seeds[r]
        rows = self._rows
        row = context if rows is None else rows.get(context)
        if row is None:
            w = ftrl_weights(np.multiply(acc.eval_column(context), -self.eta),
                             self._mask(context))
        else:
            w = self._w[r, row].tolist()
        arm = sample_index(w, gen)
        fn = reveal(arm)
        acc.add(arm, 1.0 / self._denominator(r, arm, self._expected[r]), fn)
        table.added(arm)
        return arm


def known_nu_rate(n_arms, horizon):
    """Standard exponential-weights rate sqrt(log K / (K * T))."""
    return math.sqrt(math.log(n_arms) / (n_arms * horizon))
