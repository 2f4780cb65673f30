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
    loss_columns(ts, cs)  the losses of all arms at each round t of ts and
                          its context c of cs, a (len(ts), K) array: the
                          one loss read of regret scoring (RegretTracker)

Auction losses are affinely rescaled into [0, 1] as (1 - (v-b)*win)/2; the
harness multiplies reported auction regret by regret_scale = 2 to undo it.

This module owns the env spec of a config, a JSON object whose format is
SPEC_FIELDS at every level: the env's kind and fields, and the objects it
nests (values, payments, availability, losses). check_spec checks a spec
before any run, without building an env or drawing: the kinds, the field
names, the sizes C and K, and that a known-nu learner's env has its
context distribution. build_env builds the env of a spec, and checks the
values inside its fields (NaN, ranges, lengths) as it does.
"""

from __future__ import annotations

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


def is_int(value, low):
    """value is an integer (not a bool) >= low."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= low)


def is_whole(value, low):
    """value is an integer (not a bool) or a float with no fractional part
    (JSON may write 1e3 or 512.0), >= low; its reader applies int() to it."""
    return is_int(value, low) or (isinstance(value, float) and value.is_integer()
                                  and value >= low)


def _number(value, name):
    """value as a finite float; EnvError naming the field if it is not a
    number, or is NaN or infinite (JSON configs can carry NaN, which
    passes every range check)."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise EnvError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise EnvError(f"{name} must be a finite number, got {value!r}")
    return x


def _positive(value, name):
    """value as a finite float > 0; EnvError naming the field otherwise."""
    x = _number(value, name)
    if not x > 0:
        raise EnvError(f"{name} must be a finite number > 0, got {value!r}")
    return x


def _numbers(values, name):
    """values as a 1-D float array; EnvError naming the field if it is not
    a nonempty list of finite numbers."""
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != 1 or out.size == 0 or not np.isfinite(out).all():
        raise EnvError(f"{name} must be a nonempty list of finite numbers, got {values!r}")
    return out


def _weights(values, n, name):
    """values as n finite nonnegative floats with a positive sum, not
    normalised; EnvError naming the field otherwise."""
    w = _numbers(values, name)
    if w.size != n:
        raise EnvError(f"{name} must have {n} entries, got {w.size}")
    if not ((w >= 0).all() and w.sum() > 0):
        raise EnvError(f"{name} must be nonnegative with a positive sum, got {values!r}")
    return w


# spec object -> (its kind when it names none, {kind: (required fields,
# optional fields) besides "kind"}). "env" is the env spec of a config, which
# must name its kind; the others are the objects an env spec nests under
# their own names.
SPEC_FIELDS = {
    "env": (None, {"tabular_synthetic": (("C", "K"), ("gap", "noise", "nu", "active")),
                   "auction": ((), ("K", "values", "payments")),
                   "sleeping": (("K",), ("availability", "losses"))}),
    "values": ("uniform", {"uniform": ((), ()), "beta": (("a", "b"), ()),
                           "discrete": (("atoms", "probs"), ())}),
    "payments": ("iid_uniform", {"iid_uniform": ((), ("lo", "hi")), "iid_beta": (("a", "b"), ()),
                                 "iid_discrete": (("atoms", "probs"), ()),
                                 "periodic": (("pattern",), ()),
                                 "drift": ((), ("base", "amplitude", "period", "noise"))}),
    "availability": ("bernoulli", {"bernoulli": (("probs",), ()),
                                   "categorical": (("subsets", "probs"), ())}),
    "losses": ("means_noise", {"iid_uniform": ((), ()), "means_noise": ((), ("means", "amp"))}),
}


def _spec(spec, name):
    """The kind of a spec object of SPEC_FIELDS[name], and the object: a
    nested object left out (None) or empty ({}) is {} of its default kind;
    any other value that is no object, falsy or not, is refused. EnvError
    naming the object, its kind or the first field that the kind does not
    read (a misspelt field must not run on its default), that is a size C
    or K but no whole number >= 1 (or null, where optional), or that is
    missing; the objects it nests are checked the same way."""
    default, kinds = SPEC_FIELDS[name]
    if (spec is None or spec == {}) and default is not None:
        return default, {}
    if not isinstance(spec, dict):
        raise EnvError(f"{name} must be an object with a kind, got {spec!r}")
    kind = spec.get("kind", default)
    if not (isinstance(kind, str) and kind in kinds):
        raise EnvError(f"{name} kind must be one of {sorted(kinds)}, got {kind!r}")
    required, optional = kinds[kind]
    for key, value in spec.items():
        if key == "kind":
            continue
        if key not in required and key not in optional:
            raise EnvError(f"{name} field {key!r} is not read by kind {kind!r}, "
                           f"which reads {list(required + optional)}")
        if key in SPEC_FIELDS:
            _spec(value, key)
        elif key in ("C", "K") and not (is_whole(value, 1) or value is None and key in optional):
            raise EnvError(f"{name} field {key!r} must be an integer >= 1, got {value!r}")
    for key in required:
        if key not in spec:
            raise EnvError(f"{name} kind {kind!r} needs the field {key!r}")
    return kind, spec


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

    def loss_columns(self, ts, contexts):
        """The losses of all arms at every (t, context) pair, as a
        (len(ts), K) array."""
        contexts = np.asarray(contexts, dtype=np.int64)
        if self._tensor is not None:
            return self._tensor[ts, :, contexts]
        return self._mu[:, contexts].T + self._amp * self._noise[ts]

    def known_nu_oracle(self):
        return self.context_space


class _StructuredLoss(LinearLoss):
    """Revealed loss of a structured TabularEnv round: the row
    mu[arm] + amp * noise[t, arm] is built when .coef is first read, which
    learners that only call eval never do; eval(context) is the same float
    as that row's entry."""

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
        env, arm = self._env, self._arm
        return float(env._mu[arm, context] + env._amp * env._noise[self._t, arm])


def _value_sampler(kind, spec, n, gen):
    if kind == "uniform":
        return gen.random(n), (lambda x: np.clip(x, 0.0, 1.0)), None
    if kind == "beta":
        a = _positive(spec["a"], "values field 'a'")
        b = _positive(spec["b"], "values field 'b'")
        # the regularized incomplete beta function is the beta CDF, with the
        # bits of scipy.stats.beta.cdf; scipy.special loads in a third of the time
        from scipy.special import betainc

        return gen.beta(a, b, n), (lambda x: betainc(a, b, x)), None
    # discrete
    atoms = _numbers(spec["atoms"], "values field 'atoms'")
    if not ((atoms >= 0) & (atoms <= 1)).all():
        raise EnvError(f"values field 'atoms' must lie in [0, 1], got {spec['atoms']!r}")
    probs = _weights(spec["probs"], atoms.size, "values field 'probs'")
    probs = probs / probs.sum()
    idx = _categorical(probs, n, gen)
    return atoms[idx], None, (atoms, probs)


def _payment_sequence(kind, spec, n, gen):
    if kind == "iid_uniform":
        lo = _number(spec.get("lo", 0.0), "payments field 'lo'")
        hi = _number(spec.get("hi", 1.0), "payments field 'hi'")
        if not lo <= hi:
            raise EnvError(f"payments fields 'lo' and 'hi' must have lo <= hi, "
                           f"got lo={lo!r}, hi={hi!r}")
        return lo + (hi - lo) * gen.random(n)
    if kind == "iid_beta":
        return gen.beta(_positive(spec["a"], "payments field 'a'"),
                        _positive(spec["b"], "payments field 'b'"), n)
    if kind == "iid_discrete":
        atoms = _numbers(spec["atoms"], "payments field 'atoms'")
        probs = _weights(spec["probs"], atoms.size, "payments field 'probs'")
        probs = probs / probs.sum()
        return atoms[_categorical(probs, n, gen)]
    if kind == "periodic":
        pattern = _numbers(spec["pattern"], "payments field 'pattern'")
        return np.tile(pattern, n // pattern.size + 1)[:n]
    # drift
    base = _number(spec.get("base", 0.5), "payments field 'base'")
    amplitude = _number(spec.get("amplitude", 0.3), "payments field 'amplitude'")
    period = _positive(spec.get("period", max(n // 4, 1)), "payments field 'period'")
    noise = _number(spec.get("noise", 0.02), "payments field 'noise'")
    t = np.arange(n)
    m = base + amplitude * np.sin(2.0 * math.pi * t / period)
    m = m + noise * gen.standard_normal(n)
    return np.clip(m, 0.0, 1.0)


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
        values = _spec(values, "values")
        payments = _spec(payments, "payments")
        if n_arms is None:
            n_arms = default_auction_arms(horizon)
        v, cdf, atoms = _value_sampler(*values, horizon, gen)
        m = _payment_sequence(*payments, horizon, gen)
        return cls(v, m, n_arms, value_cdf=cdf, atoms=atoms)

    def context(self, t):
        return float(self.values[t])

    def active_mask(self, context):
        return None

    def reveal(self, t, arm):
        if not 0 <= arm < self.n_arms:
            raise EnvError(f"arm {arm} outside the bid grid")
        return self._win[arm] if self.bids[arm] >= self.payments[t] else self._lose

    def loss_columns(self, ts, contexts):
        """The rescaled first-price losses (1 - (v - b) * win) / 2 of all
        bids b at every (t, value v) pair, win iff b >= payment, as a
        (len(ts), K) array."""
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
    if not arms or not all(is_int(k, 0) and k < n_arms for k in arms):
        raise EnvError(f"availability field 'subsets' must hold nonempty lists of "
                       f"arms in 0..{n_arms - 1}, got {subset!r}")
    return sum(1 << int(k) for k in set(arms))


def subset_to_mask(bitmask, n_arms):
    return (bitmask >> np.arange(n_arms)) & 1 == 1


def _lists_subsets(availability, n_arms):
    """Whether a sleeping env of this availability kind and K enumerates
    its subsets with their probabilities, which known_nu needs: listed
    (categorical) subsets always, Bernoulli ones up to
    SUBSET_SPACE_MAX_ARMS arms."""
    return availability != "bernoulli" or n_arms <= SUBSET_SPACE_MAX_ARMS


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
        akind, availability = _spec(availability, "availability")
        lkind, losses = _spec(losses, "losses")
        if akind == "bernoulli":
            # a given bernoulli object holds probs; a left-out one is {}
            given = availability.get("probs", [0.5] * n_arms)
            probs = _numbers(given, "availability field 'probs'")
            if probs.size != n_arms:
                raise EnvError("availability probs must have length K")
            if not ((probs >= 0) & (probs <= 1)).all():  # NaN fails too
                raise EnvError(f"availability field 'probs' must lie in [0, 1], "
                               f"got {given!r}")
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
            if _lists_subsets(akind, n_arms):
                subset_probs = cls._bernoulli_subset_probs(probs)
        else:  # categorical
            subsets = availability["subsets"]
            if not (isinstance(subsets, (list, tuple)) and subsets):
                raise EnvError(f"availability field 'subsets' must be a nonempty list, "
                               f"got {subsets!r}")
            masks = [_subset_bits(subset, n_arms) for subset in subsets]
            probs = _weights(availability["probs"], len(masks), "availability field 'probs'")
            idx = _categorical(probs, horizon, gen)
            subsets = np.asarray(masks, dtype=np.int64)[idx]
            subset_probs = (np.asarray(masks, dtype=np.int64), probs / probs.sum())
        if lkind == "iid_uniform":
            table = gen.random((horizon, n_arms))
        else:  # means_noise
            means = losses.get("means")
            means = (np.linspace(0.15, 0.85, n_arms) if means is None
                     else _numbers(means, "losses field 'means'"))
            if means.size != n_arms:
                raise EnvError(f"losses field 'means' must have {n_arms} entries, "
                               f"got {means.size}")
            amp = _number(losses.get("amp", 0.1), "losses field 'amp'")
            table = np.clip(means[None, :] + amp * gen.uniform(-1, 1, (horizon, n_arms)),
                            0.0, 1.0)
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

    def loss_columns(self, ts, contexts):
        """The losses of all arms at every (t, context) pair, as a
        (len(ts), K) array."""
        return self.losses[ts]

    def known_nu_oracle(self):
        if self.context_space is None:
            raise EnvError("exact subset distribution unavailable (K too large)")
        return self.context_space


def check_spec(spec, known_nu=False):
    """Check an env spec without building its env or drawing: its kind and
    those of the objects it nests, their field names, the sizes C and K,
    and, when known_nu, that its env has the context distribution a
    known-nu learner reads. EnvError naming the first fault; the values of
    the fields are checked when the env is built (build_env)."""
    kind, spec = _spec(spec, "env")
    if known_nu and kind == "sleeping":
        n_arms = int(spec["K"])
        if not _lists_subsets(_spec(spec.get("availability"), "availability")[0], n_arms):
            raise EnvError(
                f"known_nu needs the subset distribution of a Bernoulli sleeping env, "
                f"enumerated only for K <= {SUBSET_SPACE_MAX_ARMS}; got K={n_arms}")


def preload(spec):
    """Import what building the envs of a checked spec imports on first use
    (scipy.special for beta values), so that pool workers forked after this
    call inherit it instead of each importing it again."""
    if _spec(spec, "env")[0] == "auction" and _spec(spec.get("values"), "values")[0] == "beta":
        import scipy.special  # noqa: F401


def spec_arms(spec, horizon):
    """Number of arms of the env a checked spec builds at this horizon."""
    n_arms = spec.get("K")
    return default_auction_arms(horizon) if n_arms is None else int(n_arms)


def build_env(spec, horizon, rng):
    """The env of an env spec over `horizon` rounds, drawn from rng;
    EnvError naming the field of a spec check_spec refuses or of a bad
    value."""
    kind, spec = _spec(spec, "env")
    fields = {key: value for key, value in spec.items() if key not in ("kind", "C", "K")}
    if kind == "tabular_synthetic":
        return TabularEnv.synthetic(int(spec["C"]), int(spec["K"]), horizon, rng, **fields)
    if kind == "auction":
        return AuctionEnv.generate(horizon, rng, n_arms=spec_arms(spec, horizon), **fields)
    return SleepingEnv.generate(horizon, int(spec["K"]), rng, **fields)


class RegretTracker:
    """Hindsight-regret accounting against the best context-to-arm mapping
    on the realized prefix. Grouping modes (env.grouping): "context" keys
    rounds by the realized context (context ids, sleeping subsets, auction
    value atoms), and "round" treats every round as its own group
    (continuous auction values, a.s. unique; every arm is always active
    there).

    update() enters one round; rounds wait and are scored in a block, one
    env.loss_columns read, once SCORE_BLOCK of them wait, and regret()
    scores the rounds still waiting first. Every sum runs in round order
    (played loss, per-group loss rows, per-round minima) and the comparator
    sums group minima in a fixed order (ascending context for tabular envs,
    first appearance otherwise), so the result does not depend on when
    regret() is read.
    """

    def __init__(self, env):
        self.env = env
        self.played = 0.0
        self._waiting = []  # (t, context, arm) of the rounds not yet scored
        self._mode = env.grouping
        if self._mode == "round":
            self._best = 0.0
        else:
            self._groups = {}  # context -> row of _rows, in first-appearance order
            self._rows = np.zeros((0, env.n_arms))

    def update(self, t, context, arm):
        """Enter round t, played at context with arm."""
        waiting = self._waiting
        waiting.append((t, context, arm))
        if len(waiting) == SCORE_BLOCK:
            self._score()

    def _score(self):
        ts, contexts, arms = zip(*self._waiting)
        self._waiting = []
        env = self.env
        cols = env.loss_columns(np.asarray(ts, dtype=np.int64), contexts)
        self.played = _running_sum(self.played, cols[np.arange(len(ts)), arms])
        if self._mode == "round":
            self._best = _running_sum(self._best, cols.min(axis=1))
        else:
            groups = self._groups
            ids = [groups.setdefault(c, len(groups)) for c in contexts]
            new = len(groups) - len(self._rows)
            if new:
                self._rows = np.concatenate([self._rows, np.zeros((new, env.n_arms))])
            np.add.at(self._rows, ids, cols)  # unbuffered, in round order

    def regret(self):
        """Raw (unscaled) regret of the rounds entered so far."""
        if self._waiting:
            self._score()
        if self._mode == "round":
            return self.played - self._best
        env, groups = self.env, self._groups
        best = 0.0
        for context in sorted(groups) if env.kind == "tabular" else groups:
            row = self._rows[groups[context]]
            mask = env.active_mask(context)
            best += float(row.min() if mask is None else row[mask].min())
        return self.played - best


def _running_sum(total, values):
    """total + values[0] + values[1] + ..., added left to right."""
    for v in values.tolist():
        total += v
    return total


def hindsight_regret(history, env):
    """Regret of a played history [(context, arm), ...] against the best
    fixed context-to-arm mapping on that history (raw loss units)."""
    tracker = RegretTracker(env)
    for t, (context, arm) in enumerate(history):
        tracker.update(t, context, arm)
    return tracker.regret()
