"""Probability-simplex primitives shared by every learner.

Arms are indexed 0..K-1. Distributions are dense length-K vectors that are
exactly zero outside the active set. Entropy-regularized FTRL over the
restricted simplex has the closed form softmax(-eta * cum_loss) on the
active arms; it is computed with a max shift so any finite input is safe.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

UNIFORM_BLOCK = 256


class SimplexError(ValueError):
    pass


def batch_index(contexts):
    """The index that reads `contexts` from the context axis of a
    coefficient matrix in a batch: the slice 0:n when they are the ids
    0..n-1, their own row numbers (a tabular accumulator then reads its
    columns through a view, not a gathered copy), else the contexts."""
    contexts = np.asarray(contexts)
    n = contexts.size
    if contexts.dtype.kind in "iu" and np.array_equal(contexts, np.arange(n)):
        return slice(0, n)
    return contexts


class ContextSpace:
    """A finite context space: the 1-D array `contexts` and `weights`, None
    or the context distribution nu, with weights[i] the probability of
    contexts[i]. `ids` is True when the contexts are the ids 0..n-1, their
    own row numbers; otherwise `rows` maps a context to its row (its first,
    if it repeats), built when first read. `index` is the batch_index of
    the contexts. The active sets at the contexts are not part of the
    space: space_masks reads them from an active-set function."""

    __slots__ = ("contexts", "index", "ids", "weights", "_rows")

    def __init__(self, contexts, weights=None):
        self.contexts = np.asarray(contexts)
        self.index = batch_index(self.contexts)
        self.ids = isinstance(self.index, slice)
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if not (weights.shape == self.contexts.shape and np.isfinite(weights).all()
                    and (weights >= 0).all() and abs(weights.sum() - 1.0) <= 1e-9):
                raise SimplexError("context weights must form a distribution over the contexts")
        self.weights = weights
        self._rows = None

    @property
    def rows(self):
        """context -> row map; None for an id space."""
        if self._rows is None and not self.ids:
            rows = {}
            for i, c in enumerate(self.contexts.tolist()):
                rows.setdefault(c, i)
            self._rows = rows
        return self._rows

    def __len__(self):
        return self.contexts.size


def space_masks(space, active, n_arms):
    """The read-only (n, K) boolean matrix whose row i is the active set
    active(contexts[i]) of a context of the space, a None mask standing for
    every arm; None when active is None or gives None at every context, so
    that an unmasked space keeps the unmasked batch softmax. SimplexError
    names the first context whose mask is not n_arms booleans."""
    if active is None:
        return None
    contexts = space.contexts.tolist()
    masks = [active(c) for c in contexts]
    if all(m is None for m in masks):
        return None
    every = np.ones(n_arms, dtype=bool)
    rows = [every if m is None else m for m in masks]
    bad = [i for i, m in enumerate(rows) if np.shape(m) != (n_arms,)]
    if not bad:
        out = np.array(rows)
        if out.dtype != bool:
            bad = np.flatnonzero(~np.isin(out, (0, 1)).all(axis=1)).tolist()
    if bad:
        raise SimplexError(f"active set of context {contexts[bad[0]]!r} must be "
                           f"{n_arms} booleans, got {rows[bad[0]]!r}")
    out = out.astype(bool, copy=False)
    out.flags.writeable = False
    return out


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


# module-level names of the ufuncs ftrl_weights calls, read without an
# attribute lookup on numpy
_exp, _subtract, _divide, _where = np.exp, np.subtract, np.divide, np.where
_max, _sum = np.maximum.reduce, np.add.reduce
_NEG_INF = -np.inf


def ftrl_weights(z, mask=None, top=None):
    """Softmax of the exponents `z` restricted to `mask` (None means all
    arms): the entropy-FTRL distribution at a context when z is -eta times
    its cumulative losses, np.multiply(cum_loss, -eta).

    `top` is the maximum of z over the mask when the caller knows it (the
    learner's exponent table keeps one per context). Hot-path core without
    finiteness checks; z is not modified and a fresh length-K array is
    returned. A mask whose shape is not z's raises SimplexError, rather
    than broadcast. The masked branch works on the full row with -inf off
    the mask, whose exp is 0, so the row sum adds the same zeros as a scatter
    into a zero row would. The ufuncs are called directly, with their
    outputs passed positionally: they run the loops of .max() and .sum()
    without those methods' Python wrappers.
    """
    if mask is not None:
        try:
            shape = mask.shape
        except AttributeError:  # a list of booleans
            shape = np.shape(mask)
        if shape != z.shape:
            raise SimplexError(f"active mask must be {z.size} booleans, got shape {shape}")
        z = _where(mask, z, _NEG_INF)
    if top is None:
        top = _max(z)
        if top == _NEG_INF:
            raise SimplexError("active set is empty")
    w = _subtract(z, top)
    _exp(w, w)
    _divide(w, _sum(w), w)
    return w


def ftrl_weights_batch(cum_loss, eta, masks=None):
    """Row-wise ftrl_weights for an (n, K) array of cumulative losses.

    `masks` may be None (all active), a (K,) mask shared by all rows, or an
    (n, K) mask matrix; SimplexError for any other shape. Row i equals
    ftrl_weights(np.multiply(cum_loss[i], -eta), mask_i) bit for bit.

    Without masks the work runs in the accumulator's (K, n) layout: the
    multiply reads cum_loss.T, which is contiguous when cum_loss is the
    transposed view of a (K, n) coefficient matrix, the row maxima are a
    reduction over axis 0 (a max is exact, so the layout cannot change
    it), and one transposed copy precedes the row sums. The sums must run
    along the contiguous K-rows of an (n, K) array, where they add in the
    order of the one-row sum; a column-wise sum adds in another order and,
    from K = 8 up, gives other bits. With masks the work stays in the (n, K)
    layout, which measured faster there.
    """
    if masks is None:
        z = np.multiply(cum_loss.T, -eta, order="C")
        z -= np.maximum.reduce(z, axis=0)
        w = np.ascontiguousarray(np.exp(z, out=z).T)
    else:
        z = np.multiply(cum_loss, -eta, order="C")
        masks = np.asarray(masks, dtype=bool)
        if masks.shape not in (z.shape, z.shape[1:]):
            raise SimplexError(f"masks of shape {masks.shape} for {z.shape[1]} arms")
        if masks.ndim == 1:
            masks = np.broadcast_to(masks, z.shape)
        if not np.logical_or.reduce(np.ascontiguousarray(masks.T), axis=0).all():
            raise SimplexError("empty active set in batch")
        neg_inf = np.where(masks, z, -np.inf)
        neg_inf -= np.maximum.reduce(np.ascontiguousarray(neg_inf.T), axis=0)[:, None]
        w = np.exp(neg_inf, where=masks, out=np.zeros_like(z))
    w /= np.add.reduce(w, axis=1, keepdims=True)
    return w


def sample_index(weights, gen):
    """Draw an arm index from a weight vector using one uniform variate.

    `weights` may be any sequence of floats; a list is fastest, since the
    prefix sums and the search then run on Python floats. They add in
    order, as np.cumsum does, so a list and an array of the same floats
    give the same index. Never returns an index with zero weight (roundoff
    at the top edge walks back to the last positive entry).
    """
    cs = list(accumulate(weights))
    u = gen.random() * cs[-1]
    k = bisect_right(cs, u)
    if k >= len(cs):
        k = len(cs) - 1
    while weights[k] == 0.0:
        k -= 1
    return k
