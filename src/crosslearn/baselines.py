"""Baseline learners: per-context EXP3 (no cross-learning) and the
cross-learning strategy for a known context distribution.

Both expose the same step(context, reveal) interface as CrossLearner so the
harness can drive any of the three interchangeably.
"""

from __future__ import annotations

import math

import numpy as np

from .simplex import BlockUniforms, ftrl_weights, sample_index

TINY_DENOM = 1e-9


class PerContextExp3:
    """Independent exponential-weights learner per context id.

    Uses only the realized scalar loss of the played arm with standard
    importance weighting, at the anytime rate sqrt(log K / (t_c * K)) where
    t_c counts visits to that context. A context never seen before starts
    from the uniform state, so fresh contexts are played uniformly.
    """

    def __init__(self, n_arms, rng, active=None):
        self.n_arms = int(n_arms)
        self.rng = rng
        self._gen = BlockUniforms(rng.gen)
        self._active = active
        self._is_matrix = isinstance(active, np.ndarray)
        self._states = {}
        self._log_k = math.log(self.n_arms)
        self.fallback_count = 0

    def _mask(self, context):
        if self._active is None:
            return None
        return self._active[context] if self._is_matrix else self._active(context)

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
        arm = sample_index(w, self._gen)
        fn = reveal(arm)
        cum[arm] += fn.eval(context) / w[arm]
        st[1] = visits + 1
        return arm


class KnownNuOracle:
    """Exact expectation E_{c~nu}[p(c, k)] over a fixed probe set.

    Finite context spaces use the context ids with their exact nu weights;
    scalar value distributions use a fixed quadrature grid whose cell
    weights are CDF differences (exact per cell). probes/weights/masks are
    aligned arrays; masks is None when every arm is always active.
    """

    def __init__(self, probes, weights, masks=None):
        self.probes = np.asarray(probes)
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.min() < 0 or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("probe weights must form a distribution")
        self.masks = masks

    @classmethod
    def finite(cls, nu, masks=None):
        nu = np.asarray(nu, dtype=float)
        return cls(np.arange(nu.size), nu, masks)

    @classmethod
    def quadrature(cls, cdf, n_nodes=512):
        """Grid oracle for a scalar context on [0, 1] with the given CDF."""
        if n_nodes < 512:
            raise ValueError("use at least 512 quadrature nodes")
        edges = np.linspace(0.0, 1.0, n_nodes + 1)
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
    """

    def __init__(self, n_arms, accumulator, oracle, eta, rng, active=None):
        self.n_arms = int(n_arms)
        self.acc = accumulator
        self.oracle = oracle
        self.eta = float(eta)
        self.rng = rng
        self._gen = BlockUniforms(rng.gen)
        self._active = active
        self._is_matrix = isinstance(active, np.ndarray)
        self.tiny_denominator_count = 0
        self.fallback_count = 0

    def _mask(self, context):
        if self._active is None:
            return None
        return self._active[context] if self._is_matrix else self._active(context)

    def probe_table(self):
        """Current play distributions at every oracle probe context."""
        cum = self.acc.eval_batch(self.oracle.probes)
        from .simplex import ftrl_weights_batch

        return ftrl_weights_batch(cum, self.eta, self.oracle.masks)

    def distribution(self, context):
        return ftrl_weights(self.acc.eval_column(context), self.eta, self._mask(context))

    def expected_play_probs(self):
        """E_{c~nu}[p(c, k)] for every arm at the current state."""
        return self.oracle.expectation(self.probe_table())

    def _denominator(self, arm):
        denom = float(self.expected_play_probs()[arm])
        if denom < TINY_DENOM:
            self.tiny_denominator_count += 1
            denom = TINY_DENOM
        return denom

    def step(self, context, reveal, t=None):
        w = ftrl_weights(self.acc.eval_column(context), self.eta, self._mask(context))
        arm = sample_index(w, self._gen)
        fn = reveal(arm)
        self.acc.add(arm, 1.0 / self._denominator(arm), fn)
        return arm


def known_nu_rate(n_arms, horizon):
    """Standard exponential-weights rate sqrt(log K / (K * T))."""
    return math.sqrt(math.log(n_arms) / (n_arms * horizon))
