"""Per-arm accumulation of weighted loss functions, kept in O(K) structured
forms so the learner never touches the full context space.

Three representations cover the environments in this package:

* tabular  -- one value per context, aggregate is a (K, C) table;
* affine   -- a + b*v over a scalar context v in [0, 1], aggregate is a
              per-arm (intercept, slope) pair;
* constant -- context-independent scalar per arm.

Adds use Kahan-compensated summation so the aggregate stays accurate over
very long runs. Snapshots freeze the aggregate (copy-on-snapshot) and serve
FTRL distributions that later adds cannot perturb.
"""

from __future__ import annotations

import math

import numpy as np

from .simplex import ftrl_weights, ftrl_weights_batch

TABULAR = "tabular"
AFFINE = "affine"
CONSTANT = "constant"

RANGE_TOL = 1e-9


class AccumulatorError(ValueError):
    pass


class TabularLoss:
    """Loss function given by one value per context id."""

    kind = TABULAR
    __slots__ = ("values",)

    def __init__(self, values, validate=True):
        values = np.asarray(values, dtype=float)
        if validate and (values.min() < -RANGE_TOL or values.max() > 1 + RANGE_TOL):
            raise AccumulatorError("tabular loss outside [0, 1]")
        self.values = values

    def eval(self, context):
        return float(self.values[context])


class AffineLoss:
    """Loss function a + b*v of a scalar context v; range over [0, 1] must
    stay inside [0, 1]."""

    kind = AFFINE
    __slots__ = ("intercept", "slope")

    def __init__(self, intercept, slope, validate=True):
        if validate:
            lo = min(intercept, intercept + slope)
            hi = max(intercept, intercept + slope)
            if lo < -RANGE_TOL or hi > 1 + RANGE_TOL:
                raise AccumulatorError("affine loss leaves [0, 1] on the unit interval")
        self.intercept = float(intercept)
        self.slope = float(slope)

    def eval(self, context):
        return self.intercept + self.slope * float(context)


class ConstantLoss:
    """Context-independent loss value in [0, 1]."""

    kind = CONSTANT
    __slots__ = ("value",)

    def __init__(self, value, validate=True):
        if validate and not -RANGE_TOL <= value <= 1 + RANGE_TOL:
            raise AccumulatorError("constant loss outside [0, 1]")
        self.value = float(value)

    def eval(self, context):
        return self.value


def _check_add(kind, arm, n_arms, weight, loss):
    if loss.kind != kind:
        raise AccumulatorError(f"cannot add a {loss.kind} loss to a {kind} accumulator")
    if not 0 <= arm < n_arms:
        raise AccumulatorError(f"arm {arm} outside [0, {n_arms})")
    if not (math.isfinite(weight) and weight >= 0):
        raise AccumulatorError(f"weight must be finite and nonnegative, got {weight!r}")


class TabularAccumulator:
    """Sum of weight * loss per (arm, context id)."""

    kind = TABULAR

    def __init__(self, n_arms, n_contexts):
        self.n_arms = int(n_arms)
        self.n_contexts = int(n_contexts)
        self.table = np.zeros((self.n_arms, self.n_contexts))
        self._comp = np.zeros_like(self.table)
        self.version = 0

    def add(self, arm, weight, loss):
        _check_add(TABULAR, arm, self.n_arms, weight, loss)
        y = weight * loss.values - self._comp[arm]
        t = self.table[arm] + y
        self._comp[arm] = (t - self.table[arm]) - y
        self.table[arm] = t
        self.version += 1

    def eval(self, context, arm):
        return float(self.table[arm, context])

    def eval_column(self, context):
        return self.table[:, context]

    def eval_batch(self, contexts):
        return self.table[:, contexts].T

    def frozen_state(self):
        return (self.table.copy(),)


class AffineAccumulator:
    """Per-arm (intercept, slope) pair summing weighted affine losses."""

    kind = AFFINE

    def __init__(self, n_arms):
        self.n_arms = int(n_arms)
        self.intercept = np.zeros(self.n_arms)
        self.slope = np.zeros(self.n_arms)
        self._comp_a = np.zeros(self.n_arms)
        self._comp_b = np.zeros(self.n_arms)
        self.version = 0

    def add(self, arm, weight, loss):
        _check_add(AFFINE, arm, self.n_arms, weight, loss)
        for arr, comp, v in (
            (self.intercept, self._comp_a, weight * loss.intercept),
            (self.slope, self._comp_b, weight * loss.slope),
        ):
            y = v - comp[arm]
            t = arr[arm] + y
            comp[arm] = (t - arr[arm]) - y
            arr[arm] = t
        self.version += 1

    def eval(self, context, arm):
        return float(self.intercept[arm] + self.slope[arm] * context)

    def eval_column(self, context):
        return self.intercept + self.slope * float(context)

    def eval_batch(self, contexts):
        vs = np.asarray(contexts, dtype=float)
        return self.intercept[None, :] + vs[:, None] * self.slope[None, :]

    def frozen_state(self):
        return (self.intercept.copy(), self.slope.copy())


class ConstantAccumulator:
    """Per-arm scalar total for context-independent losses."""

    kind = CONSTANT

    def __init__(self, n_arms):
        self.n_arms = int(n_arms)
        self.totals = np.zeros(self.n_arms)
        self._comp = np.zeros(self.n_arms)
        self.version = 0

    def add(self, arm, weight, loss):
        _check_add(CONSTANT, arm, self.n_arms, weight, loss)
        y = weight * loss.value - self._comp[arm]
        t = self.totals[arm] + y
        self._comp[arm] = (t - self.totals[arm]) - y
        self.totals[arm] = t
        self.version += 1

    def eval(self, context, arm):
        return float(self.totals[arm])

    def eval_column(self, context):
        return self.totals

    def eval_batch(self, contexts):
        return np.broadcast_to(self.totals, (len(contexts), self.n_arms)).copy()

    def frozen_state(self):
        return (self.totals.copy(),)


def make_accumulator(kind, n_arms, n_contexts=None):
    if kind == TABULAR:
        if n_contexts is None:
            raise AccumulatorError("tabular accumulator needs n_contexts")
        return TabularAccumulator(n_arms, n_contexts)
    if kind == AFFINE:
        return AffineAccumulator(n_arms)
    if kind == CONSTANT:
        return ConstantAccumulator(n_arms)
    raise AccumulatorError(f"unknown accumulator kind {kind!r}")


class SnapshotHandle:
    """Frozen copy of an accumulator plus an FTRL learning rate.

    weights(context) serves the FTRL distribution of the frozen state and is
    immutable by construction: the arrays are copies with writes disabled.
    """

    __slots__ = ("kind", "eta", "n_arms", "_state", "version")

    def __init__(self, kind, state, eta, n_arms, version):
        self.kind = kind
        self.eta = float(eta)
        self.n_arms = int(n_arms)
        self._state = tuple(a.copy() for a in state)
        for a in self._state:
            a.flags.writeable = False
        self.version = version

    def eval_column(self, context):
        if self.kind == TABULAR:
            return self._state[0][:, context]
        if self.kind == AFFINE:
            return self._state[0] + self._state[1] * float(context)
        return self._state[0]

    def eval_batch(self, contexts):
        if self.kind == TABULAR:
            return self._state[0][:, contexts].T
        if self.kind == AFFINE:
            vs = np.asarray(contexts, dtype=float)
            return self._state[0][None, :] + vs[:, None] * self._state[1][None, :]
        return np.broadcast_to(self._state[0], (len(contexts), self.n_arms)).copy()

    def weights(self, context, mask=None):
        return ftrl_weights(self.eval_column(context), self.eta, mask)

    def weights_batch(self, contexts, masks=None):
        return ftrl_weights_batch(self.eval_batch(contexts), self.eta, masks)


def snapshot(acc, eta):
    """Freeze the accumulator's current aggregate into a SnapshotHandle."""
    return SnapshotHandle(acc.kind, acc.frozen_state(), eta, acc.n_arms, acc.version)
