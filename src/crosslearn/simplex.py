"""Probability-simplex primitives shared by every learner.

Arms are indexed 0..K-1. Distributions are dense length-K vectors (lists
of floats from ftrl_weights, array rows from ftrl_weights_batch) that are
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
    that a table over an unmasked space writes no -inf. SimplexError names
    the first context whose mask is not n_arms booleans."""
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
_exp, _subtract = np.exp, np.subtract
_NEG_INF = -np.inf


def pairwise_sum(w):
    """The sum of the floats in the list `w`, bit for bit the sum numpy
    makes along a contiguous float64 axis (np.add.reduce, and each row sum
    of ftrl_weights_batch): from 0.0, in order below 8 terms; from 8 to 128
    terms as eight running sums of every eighth term, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in order; above 128
    the sum of the halves split at n//2 rounded down to a multiple of 8.
    That order is numpy's, not its API: tests/test_simplex.py and
    tests/test_differential.py pin it."""
    n = len(w)
    if n < 8:
        s = 0.0
        for x in w:
            s += x
        return s
    if n > 128:
        h = n // 2 - n // 2 % 8
        return pairwise_sum(w[:h]) + pairwise_sum(w[h:])
    r0, r1, r2, r3, r4, r5, r6, r7 = w[:8]
    m = n - n % 8
    i = 8
    while i < m:
        a0, a1, a2, a3, a4, a5, a6, a7 = w[i:i + 8]
        r0 += a0
        r1 += a1
        r2 += a2
        r3 += a3
        r4 += a4
        r5 += a5
        r6 += a6
        r7 += a7
        i += 8
    # numpy adds the whole sum to a 0.0 start; adding the 0.0 before the
    # tail instead can change only the sign of a zero, and neither order
    # ends in -0.0
    s = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    if m < n:
        for x in w[m:]:
            s += x
    return s


def ftrl_weights(z, mask=None):
    """Softmax of the exponents `z` (a length-K array or list of floats)
    restricted to `mask` (None means all arms), as a list of floats: the
    entropy-FTRL distribution at a context when z is -eta times its
    cumulative losses, np.multiply(cum_loss, -eta).

    Hot-path core without finiteness checks; z is not modified. A mask
    whose shape is not (K,) raises SimplexError, rather than broadcast.
    The mask (-inf off it, whose exp is 0) and the maximum are taken on
    Python floats, numpy subtracts and exponentiates, and the sum
    (pairwise_sum) and the division run on Python floats, so the list
    holds the bits of the array softmax and of each row of
    ftrl_weights_batch.
    """
    if mask is not None:
        mask = np.asarray(mask)
        if mask.shape != (len(z),):
            raise SimplexError(f"active mask must be {len(z)} booleans, got shape {mask.shape}")
        z = [x if m else _NEG_INF for x, m in zip(z if type(z) is list else z.tolist(),
                                                  mask.tolist())]
    top = max(z if type(z) is list else z.tolist())
    if top == _NEG_INF:
        raise SimplexError("active set is empty")
    w = _subtract(z, top)
    _exp(w, w)
    w = w.tolist()
    s = pairwise_sum(w)
    return [x / s for x in w]


def ftrl_weights_batch(z):
    """Row-wise ftrl_weights(z[..., i, :]) for an (n, K) array of
    exponents, or a stack of them (..., n, K), -inf off each row's active
    set (a row with none is the caller's to refuse), as a C-ordered array
    of z's shape and the same bits.

    z is typically a view with its last two axes swapped of a (K, n)
    learner.SpaceTable or of a known-nu learner's (R, K, n) stack. The
    maxima are a reduction over the K axis (a max is exact, so the layout
    cannot change them), and the subtract writes its result C-ordered, so
    the exp and the row sums run on contiguous K-rows. There each row adds
    in the order of pairwise_sum, whatever the leading axes; a column-wise
    sum adds in another order and, from K = 8 up, gives other bits.
    """
    w = _subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), order="C")
    _exp(w, w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
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
