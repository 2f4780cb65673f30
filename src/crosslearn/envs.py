"""Environments: synthetic tabular instances, first-price auctions with
binary win feedback, and sleeping bandits with context-independent losses.

Every environment pre-draws its context sequence and any loss randomness at
construction time from its own stream, so the adversary is oblivious and a
run is reproducible from (spec, seed) alone. The learner-facing surface is:

    context(t)            realized context of round t (0-based)
    active_mask(context)  None (all arms) or a boolean (K,) mask; learners
                          take this function as their active sets
    context_space         the finite ContextSpace of the contexts the env
                          can draw, with their probabilities nu, or None
    known_nu_oracle()     the ContextSpace a known-nu learner averages
                          over: context_space, or for continuous auction
                          values a QUADRATURE_NODES-cell quadrature of nu
    reveal(t, arm)        LinearLoss of the played arm, full context map;
                          EnvError for an arm outside 0..K-1 or inactive
    loss_scalar(t, c, k)  realized loss value
    loss_column(t, c)     losses of all arms at context c
    loss_columns(ts, cs)  loss_column of many rounds at once (regret scoring)

Auction losses are affinely rescaled into [0, 1] as (1 - (v-b)*win)/2; the
harness multiplies reported auction regret by regret_scale = 2 to undo it.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .accumulator import (AFFINE, CONSTANT, TABULAR, AffineAccumulator, ConstantAccumulator,
                          LinearLoss, TabularAccumulator)
from .simplex import ContextSpace


# rows of Bernoulli availability drawn at once by SleepingEnv.generate
AVAILABILITY_BLOCK = 1 << 14
# rounds scored at once by RegretTracker
SCORE_BLOCK = 256
# equal cells of the quadrature space of continuous auction values
QUADRATURE_NODES = 512
# largest K whose Bernoulli availability gets a context space: its 2^K - 1
# subsets with their probabilities, which known_nu needs
SUBSET_SPACE_MAX_ARMS = 16


class EnvError(ValueError):
    pass


def auction_loss(value, bid, payment):
    """Rescaled first-price loss (1 - (value - bid) * win) / 2, win iff
    bid >= payment. Lies in [0, 1] for value, bid, payment in [0, 1]."""
    win = 1.0 if bid >= payment else 0.0
    return 0.5 * (1.0 - (value - bid) * win)


def _number(value, name):
    """value as a float; EnvError naming the field if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise EnvError(f"{name} must be a number, got {value!r}") from None


def _positive(value, name):
    """value as a finite float > 0; EnvError naming the field otherwise."""
    x = _number(value, name)
    if not (math.isfinite(x) and x > 0):
        raise EnvError(f"{name} must be a finite number > 0, got {value!r}")
    return x


def _field(spec, key, name):
    """spec[key]; EnvError naming the field if the spec lacks it."""
    if key not in spec:
        raise EnvError(f"{name} field {key!r} is missing")
    return spec[key]


def _numbers(values, name):
    """values as a 1-D float array; EnvError naming the field if it is not
    a nonempty list of numbers."""
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != 1 or out.size == 0:
        raise EnvError(f"{name} must be a nonempty list of numbers, got {values!r}")
    return out


def _weights(values, n, name):
    """values as n finite nonnegative floats with a positive sum, not
    normalised; EnvError naming the field otherwise."""
    w = _numbers(values, name)
    if w.size != n:
        raise EnvError(f"{name} must have {n} entries, got {w.size}")
    if not (np.isfinite(w).all() and (w >= 0).all() and w.sum() > 0):
        raise EnvError(f"{name} must be nonnegative with a positive sum, got {values!r}")
    return w


def _spec(spec, name, default):
    """A nested spec object of an env (values, payments, availability,
    losses): the default when empty, else a dict, or EnvError naming it."""
    if not spec:
        return default
    if not isinstance(spec, dict):
        raise EnvError(f"{name} must be an object with a kind, got {spec!r}")
    return spec


def _categorical(probs, n, gen):
    cs = np.cumsum(probs)
    return np.searchsorted(cs, gen.random(n) * cs[-1], side="right").astype(np.int64)


def _active_matrix(active, n_contexts, n_arms):
    """The active sets of a finite context space as a read-only (C, K) bool
    matrix, from a matrix or a list of C rows; None stays None (every arm
    always active)."""
    if active is None:
        return None
    if not isinstance(active, (list, tuple, np.ndarray)):
        raise EnvError(f"active must be a (C, K) boolean matrix or a list of C rows, "
                       f"got a {type(active).__name__}")
    rows = list(active)
    if len(rows) != n_contexts:
        raise EnvError(f"active sets given for {len(rows)} contexts, expected {n_contexts}")
    out = np.zeros((n_contexts, n_arms), dtype=bool)
    for c, row in enumerate(rows):
        if row is None:
            raise EnvError(f"active set missing for context {c}")
        m = np.asarray(row)
        if m.shape != (n_arms,) or m.dtype.kind not in "biu" or not np.isin(m, (0, 1)).all():
            raise EnvError(f"active set of context {c} must be {n_arms} booleans")
        if not m.any():
            raise EnvError(f"active set of context {c} is empty")
        out[c] = m
    out.flags.writeable = False
    return out


def _is_number(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


class TabularEnv:
    """Finite context space with a per-round loss tensor.

    Two storage modes: an explicit (T, K, C) tensor, or the structured form
    mu[k, c] + amp * u[t, k] with pre-drawn noise u in [-1, 1], which keeps
    memory at O(T*K) for long synthetic runs. Contexts are drawn iid from nu,
    which context_space carries as its weights.
    """

    kind = "tabular"
    acc_kind = TABULAR
    regret_scale = 1.0
    grouping = "context"

    def __init__(self, nu, contexts, n_arms, tensor=None, mu=None, amp=0.0,
                 noise=None, active=None):
        self.n_contexts = len(nu)
        self.contexts = np.asarray(contexts, dtype=np.int64)
        self.horizon = self.contexts.size
        self.n_arms = int(n_arms)
        self._tensor = tensor
        self._mu = mu
        self._amp = float(amp)
        self._noise = noise
        if (tensor is None) == (mu is None):
            raise EnvError("provide exactly one of tensor or mu")
        self.active = _active_matrix(active, self.n_contexts, self.n_arms)
        self.context_space = ContextSpace(np.arange(self.n_contexts), nu)
        # per-round reads in plain Python: the contexts, and the active sets
        # as rows of bools (None: every arm active)
        self._context_list = self.contexts.tolist()
        self._active_rows = None if self.active is None else self.active.tolist()
        for arr in (self._tensor, self._mu, self._noise, self.contexts):
            if arr is not None:
                arr.flags.writeable = False

    @classmethod
    def synthetic(cls, n_contexts, n_arms, horizon, rng, gap=0.7, noise=0.15,
                  nu="uniform", active=None):
        """Instance with per-context distinct best arms: arm c mod K has
        mean (1-gap)/2 at context c, every other arm (1+gap)/2, plus
        per-round per-arm noise shared across contexts."""
        gap, noise = _number(gap, "gap"), _number(noise, "noise")
        if gap <= 0 or gap >= 1:
            raise EnvError("gap must lie in (0, 1)")
        lo, hi = (1.0 - gap) / 2.0, (1.0 + gap) / 2.0
        if noise > min(lo, 1.0 - hi):
            raise EnvError("noise amplitude pushes losses outside [0, 1]")
        if isinstance(nu, str) and nu == "uniform":
            nu = np.full(n_contexts, 1.0 / n_contexts)
        else:
            nu = _weights(nu, n_contexts, "nu")
            nu = nu / nu.sum()
        gen = rng.gen
        mu = np.full((n_arms, n_contexts), hi)
        cols = np.arange(n_contexts)
        mu[cols % n_arms, cols] = lo
        contexts = _categorical(nu, horizon, gen)
        u = gen.uniform(-1.0, 1.0, size=(horizon, n_arms))
        return cls(nu, contexts, n_arms, mu=mu, amp=noise, noise=u, active=active)

    @classmethod
    def from_tensor(cls, tensor, nu, rng, active=None):
        tensor = np.asarray(tensor, dtype=float)
        if tensor.ndim != 3:
            raise EnvError("tensor must have shape (T, K, C)")
        if not ((tensor >= 0) & (tensor <= 1)).all():  # NaN fails too
            raise EnvError("losses must lie in [0, 1]")
        horizon, n_arms, n_contexts = tensor.shape
        nu = _weights(nu, n_contexts, "nu")
        # contexts are drawn from nu as given, the env keeps it normalised
        contexts = _categorical(nu, horizon, rng.gen)
        return cls(nu / nu.sum(), contexts, n_arms, tensor=tensor, active=active)

    @classmethod
    def from_csv(cls, path, nu, rng, active=None):
        """Load a loss tensor from rows t,k,c,value after an optional header
        row: nonnegative integers t, k, c, each triple once, and a number;
        EnvError naming the line otherwise."""
        losses = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or reader.line_num == 1 and not _is_number(row[0]):
                    continue  # a blank line, or the header
                where = f"{path} line {reader.line_num}"
                if len(row) != 4 or not all(f.strip().isdecimal() for f in row[:3]):
                    raise EnvError(f"{where}: expected t,k,c,value with nonnegative "
                                   f"integers t, k, c, got {row!r}")
                key = tuple(int(f) for f in row[:3])
                if key in losses:
                    raise EnvError(f"{where}: duplicate entry for (t, k, c) = {key}")
                losses[key] = _number(row[3], f"{where}: value")
        if not losses:
            raise EnvError(f"no loss rows found in {path}")
        keys = np.array(list(losses))
        tensor = np.zeros(keys.max(axis=0) + 1)
        if len(keys) != tensor.size:
            raise EnvError("loss tensor has missing (t, k, c) entries")
        tensor[tuple(keys.T)] = list(losses.values())
        return cls.from_tensor(tensor, nu, rng, active=active)

    def context(self, t):
        return self._context_list[t]

    def active_mask(self, context):
        return None if self.active is None else self.active[context]

    def reveal(self, t, arm):
        if not 0 <= arm < self.n_arms:
            raise EnvError(f"arm {arm} outside 0..{self.n_arms - 1}")
        rows = self._active_rows
        if rows is not None and not rows[self._context_list[t]][arm]:
            raise EnvError(f"arm {arm} inactive at context {self._context_list[t]}")
        if self._tensor is not None:
            return LinearLoss(TabularAccumulator, self._tensor[t, arm], validate=False)
        return _StructuredLoss(self, t, arm)

    def loss_scalar(self, t, context, arm):
        if self._tensor is not None:
            return float(self._tensor[t, arm, context])
        return float(self._mu[arm, context] + self._amp * self._noise[t, arm])

    def loss_column(self, t, context):
        if self._tensor is not None:
            return self._tensor[t, :, context]
        return self._mu[:, context] + self._amp * self._noise[t]

    def loss_columns(self, ts, contexts):
        """loss_column of every (t, context) pair, as a (len(ts), K) array."""
        contexts = np.asarray(contexts, dtype=np.int64)
        if self._tensor is not None:
            return self._tensor[ts, :, contexts]
        return self._mu[:, contexts].T + self._amp * self._noise[ts]

    def known_nu_oracle(self):
        return self.context_space


class _StructuredLoss(LinearLoss):
    """Revealed loss of a structured TabularEnv round: the row
    mu[arm] + amp * noise[t, arm] is built when .coef is first read, which
    learners that only call eval never do; eval(context) is loss_scalar,
    the same float as that row's entry."""

    phi = TabularAccumulator
    __slots__ = ("_env", "_t", "_arm", "_row")

    def __init__(self, env, t, arm):
        self._env = env
        self._t = t
        self._arm = arm
        self._row = None

    @property
    def coef(self):
        if self._row is None:
            env, arm = self._env, self._arm
            self._row = env._mu[arm] + env._amp * env._noise.item(self._t, arm)
        return self._row

    def eval(self, context):
        return self._env.loss_scalar(self._t, context, self._arm)


def _value_sampler(spec, n, gen):
    kind = spec.get("kind", "uniform")
    if kind == "uniform":
        return gen.random(n), (lambda x: np.clip(x, 0.0, 1.0)), None
    if kind == "beta":
        a = _positive(spec.get("a"), "values field 'a'")
        b = _positive(spec.get("b"), "values field 'b'")
        from scipy.stats import beta as beta_dist

        return gen.beta(a, b, n), (lambda x: beta_dist.cdf(x, a, b)), None
    if kind == "discrete":
        atoms = _numbers(_field(spec, "atoms", "values"), "values field 'atoms'")
        if not ((atoms >= 0) & (atoms <= 1)).all():
            raise EnvError(f"values field 'atoms' must lie in [0, 1], got {spec['atoms']!r}")
        probs = _weights(_field(spec, "probs", "values"), atoms.size, "values field 'probs'")
        probs = probs / probs.sum()
        idx = _categorical(probs, n, gen)
        return atoms[idx], None, (atoms, probs)
    raise EnvError(f"unknown value distribution {kind!r}")


def _payment_sequence(spec, n, gen):
    kind = spec.get("kind", "iid_uniform")
    if kind == "iid_uniform":
        lo = _number(spec.get("lo", 0.0), "payments field 'lo'")
        hi = _number(spec.get("hi", 1.0), "payments field 'hi'")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise EnvError(f"payments fields 'lo' and 'hi' must be finite with lo <= hi, "
                           f"got lo={lo!r}, hi={hi!r}")
        return lo + (hi - lo) * gen.random(n)
    if kind == "iid_beta":
        return gen.beta(_positive(spec.get("a"), "payments field 'a'"),
                        _positive(spec.get("b"), "payments field 'b'"), n)
    if kind == "iid_discrete":
        atoms = _numbers(_field(spec, "atoms", "payments"), "payments field 'atoms'")
        probs = _weights(_field(spec, "probs", "payments"), atoms.size, "payments field 'probs'")
        probs = probs / probs.sum()
        return atoms[_categorical(probs, n, gen)]
    if kind == "periodic":
        pattern = _numbers(_field(spec, "pattern", "payments"), "payments field 'pattern'")
        return np.tile(pattern, n // pattern.size + 1)[:n]
    if kind == "drift":
        base = _number(spec.get("base", 0.5), "payments field 'base'")
        amplitude = _number(spec.get("amplitude", 0.3), "payments field 'amplitude'")
        period = _positive(spec.get("period", max(n // 4, 1)), "payments field 'period'")
        noise = _number(spec.get("noise", 0.02), "payments field 'noise'")
        t = np.arange(n)
        m = base + amplitude * np.sin(2.0 * math.pi * t / period)
        m = m + noise * gen.standard_normal(n)
        return np.clip(m, 0.0, 1.0)
    raise EnvError(f"unknown payment process {kind!r}")


def default_auction_arms(horizon):
    """Bid-grid size of an auction without an explicit K: ceil(T^(1/3))."""
    return math.ceil(horizon ** (1.0 / 3.0))


class AuctionEnv:
    """Repeated first-price auction: context is the private value v_t drawn
    iid, arms are the grid bids {0, 1/K, ..., (K-1)/K}, and the only
    information in the feedback is whether the bid won against the oblivious
    payment m_t. Default K is ceil(T^(1/3))."""

    kind = "auction"
    acc_kind = AFFINE
    regret_scale = 2.0

    def __init__(self, values, payments, n_arms, value_cdf=None, atoms=None):
        self.values = np.asarray(values, dtype=float)
        self.payments = np.asarray(payments, dtype=float)
        self.horizon = self.values.size
        self.n_arms = int(n_arms)
        self.bids = np.arange(self.n_arms) / self.n_arms
        self._value_cdf = value_cdf
        self.context_space = None if atoms is None else ContextSpace(atoms[0], weights=atoms[1])
        self.grouping = "context" if atoms is not None else "round"
        # the revealed losses: (1 - (v - b)) / 2 on a win at bid b, 1/2 on a loss
        wins = np.stack([(1.0 + self.bids) / 2.0, np.full(self.n_arms, -0.5)], axis=1)
        lose = np.array([0.5, 0.0])
        for arr in (self.values, self.payments, self.bids, wins, lose):
            arr.flags.writeable = False
        self._win = [LinearLoss(AffineAccumulator, row, validate=False) for row in wins]
        self._lose = LinearLoss(AffineAccumulator, lose, validate=False)

    @classmethod
    def generate(cls, horizon, rng, values=None, payments=None, n_arms=None):
        gen = rng.gen
        values = _spec(values, "values", {"kind": "uniform"})
        payments = _spec(payments, "payments", {"kind": "iid_uniform"})
        if n_arms is None:
            n_arms = default_auction_arms(horizon)
        v, cdf, atoms = _value_sampler(values, horizon, gen)
        m = _payment_sequence(payments, horizon, gen)
        return cls(v, m, n_arms, value_cdf=cdf, atoms=atoms)

    def context(self, t):
        return float(self.values[t])

    def active_mask(self, context):
        return None

    def reveal(self, t, arm):
        if not 0 <= arm < self.n_arms:
            raise EnvError(f"arm {arm} outside the bid grid")
        return self._win[arm] if self.bids[arm] >= self.payments[t] else self._lose

    def loss_scalar(self, t, context, arm):
        return auction_loss(context, self.bids[arm], self.payments[t])

    def loss_column(self, t, context):
        win = self.bids >= self.payments[t]
        return 0.5 * (1.0 - (context - self.bids) * win)

    def loss_columns(self, ts, contexts):
        """loss_column of every (t, context) pair, as a (len(ts), K) array."""
        values = np.asarray(contexts, dtype=float)[:, None]
        win = self.bids >= self.payments[ts][:, None]
        return 0.5 * (1.0 - (values - self.bids) * win)

    def known_nu_oracle(self):
        """The value atoms, or QUADRATURE_NODES equal cells of [0, 1] at
        their midpoints, each weighted by its CDF difference."""
        if self.context_space is not None:
            return self.context_space
        edges = np.linspace(0.0, 1.0, QUADRATURE_NODES + 1)
        cw = np.diff(self._value_cdf(edges))
        return ContextSpace(0.5 * (edges[:-1] + edges[1:]), weights=cw / cw.sum())


def _subset_bits(subset, n_arms):
    """The bitmask of a nonempty list of arms in 0..n_arms-1; EnvError
    naming the availability field 'subsets' otherwise."""
    arms = subset if isinstance(subset, (list, tuple)) else None
    if not arms or not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                           and 0 <= k < n_arms for k in arms):
        raise EnvError(f"availability field 'subsets' must hold nonempty lists of "
                       f"arms in 0..{n_arms - 1}, got {subset!r}")
    return sum(1 << int(k) for k in set(arms))


def subset_to_mask(bitmask, n_arms):
    return (bitmask >> np.arange(n_arms)) & 1 == 1


class SleepingEnv:
    """Sleeping bandits: the context is the set of available arms, encoded
    as a bitmask, and losses do not depend on the context. Cross-learning
    over subsets turns per-subset regret into per-arm regret."""

    kind = "sleeping"
    acc_kind = CONSTANT
    regret_scale = 1.0
    grouping = "context"

    def __init__(self, losses, subsets, subset_probs=None):
        """subset_probs: (subsets, probabilities) of the subsets the env can
        draw, or None when they are not enumerated."""
        self.losses = np.asarray(losses, dtype=float)
        self.subsets = np.asarray(subsets, dtype=np.int64)
        self.horizon, self.n_arms = self.losses.shape
        self.context_space = None if subset_probs is None else ContextSpace(*subset_probs)
        self._mask_cache = {}
        self._subset_list = self.subsets.tolist()
        for arr in (self.losses, self.subsets):
            arr.flags.writeable = False

    @classmethod
    def generate(cls, horizon, n_arms, rng, availability=None, losses=None):
        gen = rng.gen
        availability = _spec(availability, "availability",
                             {"kind": "bernoulli", "probs": [0.5] * n_arms})
        losses = _spec(losses, "losses", {"kind": "means_noise"})
        akind = availability.get("kind", "bernoulli")
        if akind == "bernoulli":
            probs = _numbers(_field(availability, "probs", "availability"),
                             "availability field 'probs'")
            if probs.size != n_arms:
                raise EnvError("availability probs must have length K")
            if not ((probs >= 0) & (probs <= 1)).all():  # NaN fails too
                raise EnvError(f"availability field 'probs' must lie in [0, 1], "
                               f"got {availability['probs']!r}")
            if not (probs > 0).any():
                raise EnvError("availability probs are all zero")
            # one row per attempt, rejecting empty rows, in the order a
            # per-round redraw loop would make them: a block never has more
            # rows than rounds still unfilled, so it draws no uniform the
            # loop would not have drawn
            subsets = np.empty(horizon, dtype=np.int64)
            bits = 1 << np.arange(n_arms)
            done = 0
            while done < horizon:
                need = min(horizon - done, AVAILABILITY_BLOCK)
                draw = gen.random((need, n_arms)) < probs
                kept = draw[draw.any(axis=1)]
                subsets[done:done + len(kept)] = kept @ bits
                done += len(kept)
            subset_probs = None
            if n_arms <= SUBSET_SPACE_MAX_ARMS:
                subset_probs = cls._bernoulli_subset_probs(probs)
        elif akind == "categorical":
            subsets = _field(availability, "subsets", "availability")
            if not (isinstance(subsets, (list, tuple)) and subsets):
                raise EnvError(f"availability field 'subsets' must be a nonempty list, "
                               f"got {subsets!r}")
            masks = [_subset_bits(subset, n_arms) for subset in subsets]
            probs = _weights(_field(availability, "probs", "availability"), len(masks),
                             "availability field 'probs'")
            idx = _categorical(probs, horizon, gen)
            subsets = np.asarray(masks, dtype=np.int64)[idx]
            subset_probs = (np.asarray(masks, dtype=np.int64), probs / probs.sum())
        else:
            raise EnvError(f"unknown availability {akind!r}")
        lkind = losses.get("kind", "means_noise")
        if lkind == "iid_uniform":
            table = gen.random((horizon, n_arms))
        elif lkind == "means_noise":
            means = losses.get("means")
            means = (np.linspace(0.15, 0.85, n_arms) if means is None
                     else _numbers(means, "losses field 'means'"))
            if means.size != n_arms:
                raise EnvError(f"losses field 'means' must have {n_arms} entries, "
                               f"got {means.size}")
            amp = _number(losses.get("amp", 0.1), "losses field 'amp'")
            table = np.clip(means[None, :] + amp * gen.uniform(-1, 1, (horizon, n_arms)),
                            0.0, 1.0)
        else:
            raise EnvError(f"unknown loss model {lkind!r}")
        return cls(table, subsets, subset_probs=subset_probs)

    @staticmethod
    def _bernoulli_subset_probs(probs):
        n_arms = probs.size
        masks = np.arange(1, 1 << n_arms, dtype=np.int64)
        p = np.ones(masks.size)
        for k in range(n_arms):
            has = (masks >> k) & 1 == 1
            p *= np.where(has, probs[k], 1.0 - probs[k])
        return masks, p / p.sum()

    def context(self, t):
        return self._subset_list[t]

    def active_mask(self, context):
        m = self._mask_cache.get(context)
        if m is None:
            m = subset_to_mask(context, self.n_arms)
            m.flags.writeable = False
            self._mask_cache[context] = m
        return m

    def reveal(self, t, arm):
        if not 0 <= arm < self.n_arms:
            raise EnvError(f"arm {arm} outside 0..{self.n_arms - 1}")
        if not self._subset_list[t] >> arm & 1:
            raise EnvError(f"arm {arm} is asleep in round {t}")
        return LinearLoss(ConstantAccumulator, self.losses[t, arm:arm + 1], validate=False)

    def loss_scalar(self, t, context, arm):
        return float(self.losses[t, arm])

    def loss_column(self, t, context):
        return self.losses[t]

    def loss_columns(self, ts, contexts):
        """loss_column of every (t, context) pair, as a (len(ts), K) array."""
        return self.losses[ts]

    def known_nu_oracle(self):
        if self.context_space is None:
            raise EnvError("exact subset distribution unavailable (K too large)")
        return self.context_space


class RegretTracker:
    """Hindsight-regret accounting against the best context-to-arm mapping
    on the realized prefix. Grouping modes (env.grouping): "context" keys
    rounds by the realized context (context ids, sleeping subsets, auction
    value atoms), and "round" treats every round as its own group
    (continuous auction values, a.s. unique; every arm is always active
    there).

    Rounds are scored in blocks of at most SCORE_BLOCK by score(); update()
    scores a single round. Every sum runs in round order (played loss, per-group loss
    rows, per-round minima) and the comparator sums group minima in a fixed
    order (ascending context for tabular envs, first appearance otherwise),
    so the result does not depend on how rounds are blocked.
    """

    def __init__(self, env):
        self.env = env
        self.played = 0.0
        self._mode = env.grouping
        if self._mode == "round":
            self._best = 0.0
        else:
            self._groups = {}  # context -> row of _rows, in first-appearance order
            self._rows = np.zeros((0, env.n_arms))

    def update(self, t, context, arm):
        self.score([t], [context], [arm])

    def score(self, ts, contexts, arms):
        """Account for the rounds ts (in order) with their contexts and arms."""
        for a in range(0, len(ts), SCORE_BLOCK):
            b = a + SCORE_BLOCK
            self._score_block(np.asarray(ts[a:b], dtype=np.int64), list(contexts[a:b]),
                              np.asarray(arms[a:b], dtype=np.int64))

    def _score_block(self, ts, contexts, arms):
        env = self.env
        cols = env.loss_columns(ts, contexts)
        self.played = _running_sum(self.played, cols[np.arange(ts.size), arms])
        if self._mode == "round":
            self._best = _running_sum(self._best, cols.min(axis=1))
        else:
            groups = self._groups
            ids = [groups.setdefault(c, len(groups)) for c in contexts]
            new = len(groups) - len(self._rows)
            if new:
                self._rows = np.concatenate([self._rows, np.zeros((new, env.n_arms))])
            np.add.at(self._rows, ids, cols)  # unbuffered, in round order

    def comparator(self):
        env = self.env
        if self._mode == "round":
            return self._best
        groups = self._groups
        total = 0.0
        for context in sorted(groups) if env.kind == "tabular" else groups:
            row = self._rows[groups[context]]
            mask = env.active_mask(context)
            total += float(row.min() if mask is None else row[mask].min())
        return total

    def regret(self):
        """Raw (unscaled) regret of the prefix seen so far."""
        return self.played - self.comparator()


def _running_sum(total, values):
    """total + values[0] + values[1] + ..., added left to right."""
    for v in values.tolist():
        total += v
    return total


def hindsight_regret(history, env):
    """Regret of a played history [(context, arm), ...] against the best
    fixed context-to-arm mapping on that history (raw loss units)."""
    tracker = RegretTracker(env)
    tracker.score(range(len(history)), [c for c, _ in history], [a for _, a in history])
    return tracker.regret()
