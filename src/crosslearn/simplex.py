"""Probability-simplex primitives shared by every learner.

Arms are indexed 0..K-1. Distributions are dense length-K vectors that are
exactly zero outside the active set. Entropy-regularized FTRL over the
restricted simplex has the closed form softmax(-eta * cum_loss) on the
active arms; it is computed with a max shift so any finite input is safe.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

SUM_TOL = 1e-12
UNIFORM_BLOCK = 256


class SimplexError(ValueError):
    pass


class ActiveSet:
    """Nonempty subset of the K arms, stored as a boolean mask."""

    __slots__ = ("n_arms", "mask")

    def __init__(self, n_arms, members=None):
        n_arms = int(n_arms)
        if n_arms < 1:
            raise SimplexError("need at least one arm")
        self.n_arms = n_arms
        if members is None:
            mask = np.ones(n_arms, dtype=bool)
        else:
            mask = np.zeros(n_arms, dtype=bool)
            for k in members:
                k = int(k)
                if not 0 <= k < n_arms:
                    raise SimplexError(f"arm {k} outside [0, {n_arms})")
                mask[k] = True
        if not mask.any():
            raise SimplexError("active set is empty")
        self.mask = mask
        self.mask.flags.writeable = False

    @classmethod
    def from_mask(cls, mask):
        mask = np.asarray(mask, dtype=bool)
        out = cls(mask.size, np.flatnonzero(mask))
        return out

    @property
    def indices(self):
        return np.flatnonzero(self.mask)

    @property
    def size(self):
        return int(self.mask.sum())

    def __contains__(self, arm):
        return 0 <= int(arm) < self.n_arms and bool(self.mask[int(arm)])

    def __eq__(self, other):
        return isinstance(other, ActiveSet) and np.array_equal(self.mask, other.mask)

    def __repr__(self):
        return f"ActiveSet({self.n_arms}, {list(self.indices)})"


class ProbVector:
    """Distribution over arms: nonnegative, sums to 1 within SUM_TOL, and
    exactly zero outside its active set."""

    __slots__ = ("weights", "active")

    def __init__(self, weights, active=None, validate=True):
        weights = np.asarray(weights, dtype=float)
        if active is None:
            active = ActiveSet(weights.size)
        elif not isinstance(active, ActiveSet):
            active = ActiveSet.from_mask(active)
        if validate:
            if weights.shape != (active.n_arms,):
                raise SimplexError("weight vector has wrong length")
            if not np.isfinite(weights).all():
                raise SimplexError("non-finite weights")
            if (weights < 0).any():
                raise SimplexError("negative weight")
            if np.any(weights[~active.mask] != 0.0):
                raise SimplexError("positive weight outside the active set")
            if abs(float(weights.sum()) - 1.0) > SUM_TOL:
                raise SimplexError(f"weights sum to {weights.sum()!r}, not 1")
        self.weights = weights
        self.active = active

    def __getitem__(self, arm):
        return float(self.weights[arm])

    def __len__(self):
        return self.weights.size

    def __repr__(self):
        return f"ProbVector({self.weights!r})"


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Streams with the same key yield identical draw sequences; distinct
    stream ids on the same seed are independent (SeedSequence spawn keys).
    """

    __slots__ = ("seed", "stream_id", "gen")

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.gen = np.random.default_rng(seq)

    def random(self, size=None):
        return self.gen.random(size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


class BlockUniforms:
    """Scalar uniform draws from a Generator, fetched UNIFORM_BLOCK at a time.

    random() returns exactly the floats that repeated gen.random() calls
    would, because Generator.random(n) yields the same values as n scalar
    draws. The generator runs ahead by up to one block, so the view must be
    the only reader of its generator.
    """

    __slots__ = ("_gen", "_next")

    def __init__(self, gen):
        self._gen = gen
        self._next = iter(()).__next__

    def random(self):
        try:
            return self._next()
        except StopIteration:
            self._next = iter(self._gen.random(UNIFORM_BLOCK).tolist()).__next__
            return self._next()


def ftrl_weights(cum_loss, eta, mask=None):
    """Softmax of -eta * cum_loss restricted to `mask` (None means all arms).

    Hot-path core without finiteness checks; `ftrl_distribution` is the
    validating wrapper. Returns a fresh length-K array. The ufunc reductions
    are called directly: they run the loops of .max() and .sum() without
    those methods' Python wrappers.
    """
    z = np.multiply(cum_loss, -eta)
    if mask is None:
        z -= np.maximum.reduce(z)
        w = np.exp(z, out=z)
    else:
        zm = z[mask]
        if zm.size == 0:
            raise SimplexError("active set is empty")
        w = np.zeros(z.shape[0])
        zm -= np.maximum.reduce(zm)
        w[mask] = np.exp(zm, out=zm)
    w /= np.add.reduce(w)
    return w


def ftrl_weights_batch(cum_loss, eta, masks=None):
    """Row-wise ftrl_weights for an (n, K) array of cumulative losses.

    `masks` may be None (all active), a (K,) mask shared by all rows, or an
    (n, K) mask matrix. Row i equals ftrl_weights(cum_loss[i], eta, mask_i)
    bit for bit. Row maxima are reduced along the contiguous axis of a
    transposed copy (a max is exact, so the layout cannot change it); row
    sums must stay along the rows of the C-ordered (n, K) array, where they
    add in the order of the one-row sum.
    """
    z = np.multiply(cum_loss, -eta, order="C")
    if masks is None:
        z -= _row_max(z)
        w = np.exp(z, out=z)
    else:
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim == 1:
            masks = np.broadcast_to(masks, z.shape)
        if not np.logical_or.reduce(np.ascontiguousarray(masks.T), axis=0).all():
            raise SimplexError("empty active set in batch")
        neg_inf = np.where(masks, z, -np.inf)
        neg_inf -= _row_max(neg_inf)
        w = np.exp(neg_inf, where=masks, out=np.zeros_like(z))
    w /= np.add.reduce(w, axis=1, keepdims=True)
    return w


def _row_max(z):
    """Maximum of each row of a 2-D array, as an (n, 1) column."""
    return np.maximum.reduce(np.ascontiguousarray(z.T), axis=0)[:, None]


def ftrl_distribution(cum_loss, eta, active=None):
    """Entropy-FTRL distribution for the given cumulative losses.

    Errors on non-finite input, non-positive eta, or an empty active set.
    """
    cum_loss = np.asarray(cum_loss, dtype=float)
    if cum_loss.ndim != 1:
        raise SimplexError("cum_loss must be one-dimensional")
    if not np.isfinite(cum_loss).all():
        raise SimplexError("non-finite cumulative loss")
    if not (eta > 0 and np.isfinite(eta)):
        raise SimplexError(f"eta must be positive and finite, got {eta!r}")
    if active is None:
        active = ActiveSet(cum_loss.size)
    elif not isinstance(active, ActiveSet):
        active = ActiveSet.from_mask(active)
    if active.n_arms != cum_loss.size:
        raise SimplexError("active set size does not match cum_loss")
    w = ftrl_weights(cum_loss, eta, None if active.size == active.n_arms else active.mask)
    return ProbVector(w, active, validate=False)


def sample_index(weights, gen):
    """Draw an arm index from a weight vector using one uniform variate.

    Never returns an index with zero weight (roundoff at the top edge walks
    back to the last positive entry).
    """
    cs = weights.cumsum().tolist()
    u = gen.random() * cs[-1]
    k = bisect_right(cs, u)
    if k >= len(cs):
        k = len(cs) - 1
    while weights[k] == 0.0:
        k -= 1
    return k


def sample(dist, rng):
    """Sample an arm from a ProbVector via an RngStream."""
    return sample_index(dist.weights, rng.gen)
