"""Per-arm accumulation of weighted loss functions.

Every loss here is a length-d row `coef`, worth coef . phi(c) at context c.
The accumulator classes are the feature maps phi: one-hot over C context ids
(tabular), (1, v) for a value v in [0, 1] (affine) and (1) (constant). Each
evaluates phi for a row or a (K, d) matrix: `column` at a context, `batch`
over many, and `upper`, the bound over the whole context space. `batch`
takes an array of contexts or the simplex.batch_index slice 0:n of the ids
0..n-1, which the tabular map reads as a view of the matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .simplex import ftrl_weights, ftrl_weights_batch

TABULAR, AFFINE, CONSTANT = "tabular", "affine", "constant"
RANGE_TOL = 1e-9


class AccumulatorError(ValueError):
    pass


class LinearLoss:
    """Loss function coef . phi(context), phi an accumulator class; values
    over the context space must stay inside [0, 1]."""

    __slots__ = ("phi", "coef")

    def __init__(self, phi, coef, validate=True):
        coef = np.asarray(coef, dtype=float)
        if validate and (-phi.upper(-coef) < -RANGE_TOL or phi.upper(coef) > 1 + RANGE_TOL):
            raise AccumulatorError(f"{phi.kind} loss leaves [0, 1]")
        self.phi, self.coef = phi, coef

    def eval(self, context):
        return float(self.phi.column(self.coef, context))


class _Linear:
    """Kahan sum of weight * loss row per arm, a (K, d) matrix `coef`. Each
    subclass owns add and eval_column: perfbench/layers.py wraps them by name."""

    dim = None  # d, when it does not depend on the context space

    def __init__(self, n_arms, n_contexts=None):
        dim = self.dim or n_contexts
        if dim is None:
            raise AccumulatorError(f"{self.kind} accumulator needs n_contexts")
        self.n_arms = int(n_arms)
        self.coef = np.zeros((self.n_arms, int(dim)))
        self._comp = np.zeros_like(self.coef)
        self.version = 0

    def add(self, arm, weight, loss):
        if loss.phi is not type(self):
            raise AccumulatorError(f"cannot add a {loss.phi.kind} loss to a {self.kind} accumulator")
        if not 0 <= arm < self.n_arms:
            raise AccumulatorError(f"arm {arm} outside [0, {self.n_arms})")
        if not (math.isfinite(weight) and weight >= 0):
            raise AccumulatorError(f"weight must be finite and nonnegative, got {weight!r}")
        # the Kahan step t = row + y, err = (t - row) - y, row = t, in place
        row, err = self.coef[arm], self._comp[arm]
        y = np.multiply(loss.coef, weight)
        y -= err
        err[...] = row
        row += y
        np.subtract(row, err, out=err)
        err -= y
        self.version += 1

    def eval_column(self, context):
        return self.column(self.coef, context)

    def eval_batch(self, contexts):
        return self.batch(self.coef, contexts)


def _points(contexts):
    """The contexts of a batch as an array: a slice 0:n stands for 0..n-1."""
    return np.arange(contexts.stop) if isinstance(contexts, slice) else contexts


class TabularAccumulator(_Linear):
    kind = TABULAR
    add, eval_column = _Linear.add, _Linear.eval_column
    n_contexts = property(lambda self: self.coef.shape[1])
    column = staticmethod(lambda coef, context: coef[..., context])
    batch = staticmethod(lambda coef, contexts: coef[..., contexts].T)
    upper = staticmethod(lambda coef: coef.max(axis=-1))


class AffineAccumulator(_Linear):
    kind = AFFINE
    add, eval_column = _Linear.add, _Linear.eval_column
    dim = 2
    column = staticmethod(lambda coef, v: coef[..., 0] + coef[..., 1] * float(v))
    # built in the matrix's (K, n) layout and returned transposed, the
    # layout that the unmasked batch softmax reads contiguously
    batch = staticmethod(lambda coef, vs: (
        coef[..., :1] + coef[..., 1:] * np.asarray(_points(vs), dtype=float)).T)
    # a line peaks at an endpoint of [0, 1]
    upper = staticmethod(lambda coef: np.maximum(coef[..., 0], coef[..., 0] + coef[..., 1]))


class ConstantAccumulator(_Linear):
    kind = CONSTANT
    add, eval_column = _Linear.add, _Linear.eval_column
    dim = 1
    column = staticmethod(lambda coef, context: coef[..., 0])
    batch = staticmethod(lambda coef, contexts: np.repeat(
        coef[None, ..., 0], len(_points(contexts)), axis=0))
    upper = staticmethod(lambda coef: coef[..., 0])


def make_accumulator(kind, n_arms, n_contexts=None):
    for cls in (TabularAccumulator, AffineAccumulator, ConstantAccumulator):
        if cls.kind == kind:
            return cls(n_arms, n_contexts)
    raise AccumulatorError(f"unknown accumulator kind {kind!r}")


class SnapshotHandle:
    """Read-only copy of an accumulator's sum plus an FTRL rate."""

    __slots__ = ("phi", "coef", "eta", "version")

    def __init__(self, acc, eta):
        self.phi, self.coef, self.version = type(acc), acc.coef.copy(), acc.version
        self.coef.flags.writeable = False
        self.eta = float(eta)

    def eval_column(self, context):
        return self.phi.column(self.coef, context)

    def eval_batch(self, contexts):
        return self.phi.batch(self.coef, contexts)

    def weights(self, context, mask=None):
        """The FTRL distribution at `context`, a list of floats
        (simplex.ftrl_weights); a row of weights_batch holds its bits."""
        return ftrl_weights(np.multiply(self.eval_column(context), -self.eta), mask)

    def weights_batch(self, contexts, masks=None):
        return ftrl_weights_batch(self.eval_batch(contexts), self.eta, masks)


def snapshot(acc, eta):
    """Freeze the accumulator's current sum into a SnapshotHandle."""
    return SnapshotHandle(acc, eta)
