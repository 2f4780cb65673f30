"""Probability-simplex primitives shared by every learner.

Arms are indexed 0..K-1. Distributions are dense length-K vectors that are
exactly zero outside the active set. Entropy-regularized FTRL over the
restricted simplex has the closed form softmax(-eta * cum_loss) on the
active arms; it is computed with a max shift so any finite input is safe.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

UNIFORM_BLOCK = 256


class SimplexError(ValueError):
    pass


def _every_arm(context):
    return None


def mask_lookup(active):
    """The function context -> active mask (None: every arm) of an active
    set given as None (every arm always active), a (C, K) boolean matrix
    indexed by integer context ids, or a callable context -> mask/None."""
    if active is None:
        return _every_arm
    if isinstance(active, np.ndarray):
        return active.__getitem__
    return active


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

    Hot-path core without finiteness checks. Returns a fresh length-K
    array. The ufunc reductions are called directly: they run the loops of
    .max() and .sum() without those methods' Python wrappers.
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

