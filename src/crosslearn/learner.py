"""Cross-learning bandit learner for unknown context distributions.

One FTRL state is shared across all contexts: every observed loss function
is added to a per-arm accumulator, and the played distribution at a context
is the entropy-FTRL softmax of the accumulated estimates evaluated there.
Because the context distribution is unknown, the importance weights use an
estimated observation frequency per arm, built as follows.

Rounds are processed in epochs of even length L. The first epoch is a
warm-up that plays uniformly over the active set. From the second epoch on,
rounds form consecutive pairs sharing one FTRL distribution p (the
accumulator only changes at pair ends, so both rounds see the same state).
Each round plays q = p if p dominates half of a two-epoch-old snapshot s of
the FTRL state, else falls back to q = s; the snapshot guarantees the
subsampling step below is well defined. At the end of a pair a fair coin
splits the two rounds into a frequency round and a loss round:

* frequency round: the next epoch's frequency estimate gains
  s_next(context)/L, an unbiased sample of E[s_next(c, .)]/2;
* loss round: with probability s(context, arm)/(2 q(context, arm)) -- at
  most 1 by the fallback rule -- the observed loss function is added to the
  accumulator with weight 2/(freq[arm] + 1.5*gamma).

Snapshots advance two epochs ahead: at the end of each epoch the FTRL state
used by the epoch's final pair is frozen and becomes the snapshot for the
epoch after next. Unbiasedness of the subsampled estimates holds for any
play distribution dominating s/2, which is what the audit in
`crosslearn.verify` checks empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import ge, mul

import numpy as np

from .accumulator import AFFINE, snapshot
from .simplex import (BlockUniforms, SimplexError, ftrl_weights, ftrl_weights_batch,
                      sample_index, space_masks)

BERN_TOL = 1e-12
_REL_TOL = 1e-9

# Largest tabulated space other than context ids, in contexts per round of
# the epoch; context ids (tabular envs) are always tabulated. Without a
# table every snapshot lookup is a one-row softmax; a table costs one batch
# row per context. Measured per simulated round of the paired-epoch learner
# (numpy 2.4.6, Python 3.11, 2-vCPU x86_64), a table breaks even at 20 to 38
# contexts per round (sleeping K=6 and K=10, 63 and 1 023 subsets; auction
# K=13 on 64 atoms) and at 4 it cuts the cost of a round by 29% to 34%. The
# value is not that break-even: it is bound by
# perfbench/tests/test_perfbench.py, whose shrunken reductions_grid plan
# (epochs of 6 to 8 rounds over 63 to 64 contexts) must make no batched
# softmax call. Raise it towards the break-even when that test changes.
TABLE_ROWS_PER_ROUND = 4


class ParamError(ValueError):
    pass


class OutOfOrderError(RuntimeError):
    pass


def _check_sizes(K, T):
    """ParamError unless 2 <= n_arms <= horizon."""
    if K < 2:
        raise ParamError(f"n_arms >= 2 violated: n_arms={K}")
    if T < K:
        raise ParamError(f"horizon >= n_arms violated: horizon={T}, n_arms={K}")


@dataclass(frozen=True)
class Params:
    """Learner parameters.

    conf is the log-scale confidence parameter (failure probability of the
    concentration events is exp(-conf) up to polynomial factors), epoch_len
    the even epoch length, gamma the frequency floor, eta the FTRL rate.
    Construction (each dataclasses.replace too) checks what the learner
    needs to run at all, raising ParamError naming the first violation:
    arm and horizon counts, an even epoch length that fits, positive finite
    rates."""

    n_arms: int
    horizon: int
    conf: float
    epoch_len: int
    gamma: float
    eta: float

    def __post_init__(self):
        _check_sizes(self.n_arms, self.horizon)
        L = self.epoch_len
        if L < 2 or L % 2 != 0:
            raise ParamError(f"epoch_len must be even and >= 2: epoch_len={L}")
        if L > self.horizon:
            raise ParamError(f"epoch_len <= horizon violated: epoch_len={L}, "
                             f"horizon={self.horizon}")
        for name in ("gamma", "eta", "conf"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ParamError(f"{name} > 0 violated: {name}={value!r}")

    def validate(self):
        """The guarantee-side rate inequalities; raises ParamError naming
        the first violated invariant."""
        L, K = self.epoch_len, self.n_arms
        gamma_floor = 16.0 * self.conf / L
        if self.gamma < gamma_floor * (1 - _REL_TOL):
            raise ParamError(
                f"gamma >= 16*conf/epoch_len violated: gamma={self.gamma!r}, "
                f"bound={gamma_floor!r}"
            )
        eta_cap = self.gamma / (2.0 * (2.0 * L * self.gamma + self.conf))
        if self.eta > eta_cap * (1 + _REL_TOL):
            raise ParamError(
                f"eta <= gamma/(2*(2*epoch_len*gamma + conf)) violated: "
                f"eta={self.eta!r}, bound={eta_cap!r}"
            )
        conf_floor = math.log(8.0 * K / self.gamma)
        if self.conf < conf_floor * (1 - _REL_TOL):
            raise ParamError(
                f"conf >= log(8*n_arms/gamma) violated: conf={self.conf!r}, "
                f"bound={conf_floor!r}"
            )


def _round_even_clamped(x, horizon):
    L = 2 * int(round(x / 2.0))
    hi = horizon if horizon % 2 == 0 else horizon - 1
    return max(2, min(L, hi))


def tune_parameters(n_arms, horizon):
    """Horizon-dependent tuning that meets every Params invariant.

    conf = 2*log(8*K*T); epoch_len is sqrt(conf*K*T/log K) rounded to the
    nearest even integer and clamped to [2, T]; gamma = 16*conf/epoch_len;
    eta is the theorem cap gamma/(2*(2*L*gamma + conf)) further capped by
    log(2)/(5*epoch_len), the rate below which the within-epoch FTRL drift
    keeps the play distribution above half its snapshot.
    """
    K, T = int(n_arms), int(horizon)
    _check_sizes(K, T)
    conf = 2.0 * math.log(8.0 * K * T)
    L = _round_even_clamped(math.sqrt(conf * K * T / math.log(K)), T)
    gamma = 16.0 * conf / L
    eta = min(gamma / (2.0 * (2.0 * L * gamma + conf)), math.log(2.0) / (5.0 * L))
    params = Params(n_arms=K, horizon=T, conf=conf, epoch_len=L, gamma=gamma, eta=eta)
    params.validate()
    return params


def calibrated_params(n_arms, horizon, eta_scale=2.0):
    """Desk-scale constants preserving the tuned shapes: epoch_len =
    0.4 sqrt(K*T/log K) (even, clamped), gamma = 0.5/epoch_len and
    eta = eta_scale * log(2)/(5 epoch_len).

    The theorem-faithful constants in `tune_parameters` are so conservative
    that at horizons below ~10^6 the FTRL state barely moves; these values
    trade the worst-case guarantee for visible sqrt(K*T) behavior and sit
    outside the rate inequalities of Params.validate (the learner does not
    check them, and `with_overrides` requires unsafe=True to produce them).
    """
    base = tune_parameters(n_arms, horizon)
    L = _round_even_clamped(
        0.4 * math.sqrt(n_arms * horizon / math.log(n_arms)), horizon
    )
    gamma = 0.5 / L
    eta = eta_scale * math.log(2.0) / (5.0 * L)
    return replace(base, epoch_len=L, gamma=gamma, eta=eta)


def with_overrides(params, eta=None, gamma=None, L=None, unsafe=False):
    """Return params with the given fields replaced.

    The result is always structurally valid (Params checks itself); unsafe
    skips only the rate inequalities of Params.validate. A violated
    invariant is reported by name.
    """
    updates = {}
    if eta is not None:
        updates["eta"] = float(eta)
    if gamma is not None:
        updates["gamma"] = float(gamma)
    if L is not None:
        updates["epoch_len"] = int(L)
    out = replace(params, **updates)
    if not unsafe:
        out.validate()
    return out


def select_sampling_distribution(p, s):
    """Rejection fallback: returns (q, fallback) with q = p when p >= s/2
    on every arm (ties count as no fallback), else q = s. FTRL
    distributions are exactly zero off their active set, so the test over
    every arm decides the same as one over the active set.

    p and s may be any sequences of floats; on lists the test runs on
    Python floats, the same multiply and compare as numpy's."""
    ok = all(map(ge, p, map(mul, repeat(0.5), s)))
    return (p, False) if ok else (s, True)


def bernoulli_param(s_val, q_val):
    """Subsampling probability s/(2q); errors if it exceeds 1 beyond
    roundoff, which would mean q failed to dominate s/2."""
    if not q_val > 0:
        raise ValueError(f"q must be positive, got {q_val!r}")
    r = s_val / (2.0 * q_val)
    if r > 1.0 + BERN_TOL:
        raise AssertionError(
            f"subsampling probability {r!r} > 1: play distribution does not "
            f"dominate half the snapshot (s={s_val!r}, q={q_val!r})"
        )
    return min(r, 1.0)


def estimate_weight(freq_k, gamma):
    """Importance weight 2/(freq + 1.5*gamma) of a subsampled loss."""
    return 2.0 / (freq_k + 1.5 * gamma)


def _every_arm(context):
    return None


def mask_function(active):
    """A learner's function context -> active mask: `active`, an env's
    active_mask, or for None one giving None (every arm); ParamError if
    `active` is neither."""
    if active is not None and not callable(active):
        raise ParamError(f"active must be None or a callable, got {type(active).__name__}")
    return _every_arm if active is None else active


def _sum_rows(rows, div):
    """rows[0]/div + rows[1]/div + ... (rows: one or more equal-length
    sequences of floats) as one reduction over axis 0. It adds the rows one
    at a time, in order, as a `+=` per row into zeros would (0.0 + x is x
    for the nonnegative x here), so the sum has the same bits. The rows
    enter numpy as one flat run of floats (np.fromiter), which is faster
    than np.divide walking a list of lists and holds the same values."""
    n, k = len(rows), len(rows[0])
    flat = np.fromiter(chain.from_iterable(rows), float, n * k).reshape(n, k)
    return np.add.reduce(np.divide(flat, div, out=flat), axis=0)


class SpaceTable:
    """The FTRL table of a source, a live accumulator or a SnapshotHandle,
    over a finite context space. A CrossLearner that tabulates a space
    keeps one over its accumulator and one frozen over each snapshot, and
    none without. It holds the exponents -eta * L(c, .) of its sum L at
    every context c, -inf off c's active set (masks: the space_masks of the
    space; SimplexError if one is empty), in the accumulator's (K, n)
    layout. `exponents` is their transposed (n, K) view and `rows` the list
    of its rows, made when first read; the array is rewritten in place.
    weights() is the (n, K) distributions, one ftrl_weights_batch call,
    which takes each context's maximum itself. z: the (K, n) array the
    exponents are written to, a new one by default; a known-nu learner
    passes each seed's slice of its stacked (R, K, n) array, which it
    softmaxes in one call.

    `version` is the source.version they are current with (None before the
    first build). Right after one add at `arm` to a live source, added(arm)
    recomputes that arm's exponents; any other move of source.version is
    left to rebuild(), from source.eval_batch. On an affine space the
    arm's row is a + b * v from its two coefficients as Python floats
    against the points v, the contexts as floats; on any other, the
    accumulator class's batch over coef[arm]. Both give the bits of the
    row of eval_batch: the same two IEEE operations, which commute, and
    the multiply by -eta and the mask are elementwise."""

    __slots__ = ("_source", "_index", "_points", "_inactive", "_neg_eta", "_z", "_rows", "version")

    def __init__(self, source, space, masks, eta, z=None):
        if masks is not None and not masks.any(axis=1).all():
            context = space.contexts.tolist()[np.argmin(masks.any(axis=1))]
            raise SimplexError(f"active set of context {context!r} is empty")
        self._source = source
        self._index = space.index
        self._points = np.asarray(space.contexts, dtype=float) if source.kind == AFFINE else None
        self._inactive = None if masks is None else ~np.ascontiguousarray(masks.T)
        self._neg_eta = -eta
        self._z = np.empty((source.n_arms, len(space))) if z is None else z
        self._rows = self.version = None

    exponents = property(lambda self: self._z.T)

    @property
    def rows(self):
        """The list of the rows of `exponents`, made when first read: only
        a table that follows a live accumulator reads it."""
        if self._rows is None:
            self._rows = list(self._z.T)
        return self._rows

    def __getstate__(self):
        # a copied view is no view: a copy makes its row list again
        return None, {name: getattr(self, name) for name in self.__slots__} | {"_rows": None}

    def rebuild(self):
        """Recompute every exponent from the source."""
        source, z = self._source, self._z
        np.multiply(source.eval_batch(self._index).T, self._neg_eta, out=z)
        if self._inactive is not None:
            np.copyto(z, -np.inf, where=self._inactive)
        self.version = source.version

    def added(self, arm):
        """Follow one add at `arm`: recompute that arm's exponents if the
        table was current before the add, else leave it stale for
        rebuild()."""
        acc = self._source
        if self.version != acc.version - 1:
            return
        row = self._z[arm]
        points = self._points
        if points is None:
            np.multiply(acc.batch(acc.coef[arm], self._index), self._neg_eta, out=row)
        else:
            a, b = acc.coef[arm].tolist()
            np.multiply(points, b, out=row)
            np.add(row, a, out=row)
            np.multiply(row, self._neg_eta, out=row)
        if self._inactive is not None:
            np.copyto(row, -np.inf, where=self._inactive[arm])
        self.version = acc.version

    def weights(self):
        """The distributions at every context, current with the source."""
        if self.version != self._source.version:
            self.rebuild()
        return ftrl_weights_batch(self._z.T)


class _SnapView:
    """Snapshot plus, over a finite context space, the table of its
    distributions at every context (masks: the space_masks of the space),
    frozen from one SpaceTable over the handle, so a lookup reads a row.
    Without a space, or at a context outside it, the row is computed per
    lookup. Rows are served as lists of floats: `lists[i]` is table row i
    as a list once it has been read, else None, so a reader takes
    `lists[i] or fill(i)`."""

    __slots__ = ("handle", "table", "lists")

    def __init__(self, handle, space=None, masks=None):
        self.handle = handle
        if space is None:
            self.table = self.lists = None
        else:
            self.table = SpaceTable(handle, space, masks, handle.eta).weights()
            self.table.flags.writeable = False
            self.lists = [None] * len(space)

    def fill(self, i):
        """Table row i as a list, kept in `lists`."""
        row = self.lists[i] = self.table[i].tolist()
        return row

    def row(self, i, context, mask=None):
        """The distribution at `context`, whose table row is i (None: the
        table lacks it)."""
        if i is None:
            return self.handle.weights(context, mask)
        return self.lists[i] or self.fill(i)


class CrossLearner:
    """Plays the paired-epoch cross-learning strategy over one accumulator.

    active: None (every arm always active) or a callable context ->
    mask/None, an env's active_mask (ParamError otherwise).
    space: the env's finite ContextSpace, or None. It is tabulated, fully
    or not at all, when its contexts are ids or number at most
    TABLE_ROWS_PER_ROUND * epoch_len, with the masks read from `active`
    once, at construction (simplex.space_masks): each snapshot then freezes
    one SpaceTable over it, and one more follows the accumulator (added()
    after each of the learner's own kept loss samples, a rebuild after any
    other change), so a round at one of its contexts hands its exponent
    row to ftrl_weights, whose only numpy calls are then one subtract and
    one exp. Without a kept space, or at a context outside it, a round
    evaluates the accumulator at its context.
    reveal passed to step: callable arm -> LinearLoss of the played arm.

    A run is watched by reading the learner between steps: t, epoch,
    fallback_count, freq_estimate, the snapshots and their table, and
    last_kept, the (arm, loss_fn) of the latest loss sample added to the
    accumulator (None before the first); acc.version counts those samples.

    From the FTRL softmax's sum on, a round works on Python floats: the
    play distribution is the list ftrl_weights returns, and a snapshot
    distribution is a table row read as a list or, off the table,
    ftrl_weights' list. Every frequency sample is the next snapshot's row
    at the frequency round's context, table row or not, kept in a list and
    summed in one reduction when the epoch ends (_sum_rows). The learner
    starts with one view of its initial state as both snapshots, and the
    warm-up's end keeps it as the next one, so a warm-up round reads one
    row to play and to record. The epoch length, horizon, eta and gamma
    are read from params once, at construction.
    """

    def __init__(self, params, accumulator, rng, active=None, space=None):
        self.params = params
        self.acc = accumulator
        self._gen = BlockUniforms(rng.gen)
        if accumulator.n_arms != params.n_arms:
            raise ParamError("accumulator and params disagree on the number of arms")
        self._mask = mask_function(active)
        if space is not None and not space.ids \
                and len(space) > TABLE_ROWS_PER_ROUND * params.epoch_len:
            space = None
        self._space = space
        self._masks = None if space is None else space_masks(space, active, params.n_arms)
        self._L, self._horizon = params.epoch_len, params.horizon
        self._eta, self._gamma = params.eta, params.gamma
        # context -> table row: {} without a space (no context has one),
        # None when the contexts are the row numbers
        self._rows = {} if space is None else space.rows
        self._exponents = None if space is None \
            else SpaceTable(accumulator, space, self._masks, self._eta)
        self.fallback_count = 0
        self.last_kept = None
        self._t = 0
        self._epoch = 1
        self._paired_end = params.horizon - params.horizon % params.epoch_len
        self._freq = [0.0] * params.n_arms
        self._freq_rows = []  # this epoch's frequency samples, next-snapshot rows
        # the views are read-only, so one serves as both snapshots
        self._snap_cur = self._snap_next = self._view(snapshot(accumulator, self._eta))
        self._snap_pending = None
        self._pending = None

    def _view(self, handle):
        return _SnapView(handle, self._space, self._masks)

    @property
    def t(self):
        return self._t

    @property
    def epoch(self):
        return self._epoch

    @property
    def freq_estimate(self):
        return np.array(self._freq)

    @property
    def snapshot_current(self):
        return self._snap_cur.handle

    @property
    def snapshot_next(self):
        return self._snap_next.handle

    @property
    def context_space(self):
        """The ContextSpace that every snapshot tabulates, or None."""
        return self._space

    @property
    def snapshot_table(self):
        """The current snapshot's distributions at every context of
        context_space (read-only), or None without a space."""
        return self._snap_cur.table

    def _end_epoch(self):
        # every warm-up round is a frequency round, one in a pair later on
        div = 2.0 * self._L if self._epoch == 1 else float(self._L)
        self._freq = _sum_rows(self._freq_rows, div).tolist()
        self._freq_rows.clear()
        self._snap_cur = self._snap_next
        # None at the warm-up's end: the FTRL state is still the initial
        # one, whose view stays the next snapshot
        if self._snap_pending is not None:
            self._snap_next, self._snap_pending = self._snap_pending, None
        self._epoch += 1

    def step(self, context, reveal):
        """Play the next round and return the chosen arm; the learner counts
        its rounds (t), and OutOfOrderError follows the horizon's last."""
        t_next = self._t + 1
        if t_next > self._horizon:
            raise OutOfOrderError(f"horizon {self._horizon} exhausted")
        self._t = t_next
        L = self._L
        rows = self._rows
        i = context if rows is None else rows.get(context)
        # a context with table rows needs no mask: its rows carry it
        mask = None if i is not None else self._mask(context)
        gen = self._gen

        if t_next <= L:
            # warm-up epoch: uniform play from the initial state, also the
            # next snapshot, whose row is the frequency sample for epoch 2
            s = self._snap_cur.row(i, context, mask)
            arm = sample_index(s, gen)
            reveal(arm)
            self._freq_rows.append(s)
            if t_next == L:
                self._end_epoch()
            return arm

        acc = self.acc
        ex = self._exponents
        if i is None:
            s = self._snap_cur.row(None, context, mask)
            p = ftrl_weights(np.multiply(acc.eval_column(context), -self._eta), mask)
        else:
            view = self._snap_cur
            s = view.lists[i] or view.fill(i)
            if ex.version != acc.version:
                ex.rebuild()
            p = ftrl_weights(ex.rows[i])
        q, fb = select_sampling_distribution(p, s)
        arm = sample_index(q, gen)
        fn = reveal(arm)
        self.fallback_count += fb
        # past the last full epoch (a horizon that L does not divide) play
        # on without estimates, from the state frozen at the last boundary
        if t_next > self._paired_end:
            return arm
        pos = (t_next - 1) % L
        if pos % 2 == 0:
            if pos == L - 2:
                # the pair playing this state is the epoch's last: its
                # distribution becomes the snapshot two epochs ahead
                self._snap_pending = self._view(snapshot(acc, self._eta))
            self._pending = (i, context, mask, arm, q[arm], s[arm], fn)
            return arm
        i1, c1, m1, a1, q1, s1, fn1 = self._pending
        self._pending = None
        if gen.random() < 0.5:  # the first round takes the frequency sample
            i, context, mask = i1, c1, m1
            al, ql, sl, fnl = arm, q[arm], s[arm], fn
        else:
            al, ql, sl, fnl = a1, q1, s1, fn1
        # i, context and mask are now the frequency round's
        self._freq_rows.append(self._snap_next.row(i, context, mask))
        if gen.random() < bernoulli_param(sl, ql):
            acc.add(al, estimate_weight(self._freq[al], self._gamma), fnl)
            self.last_kept = (al, fnl)
            if ex is not None:
                ex.added(al)
        if pos == L - 1:
            self._end_epoch()
        return arm
