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
from itertools import repeat
from operator import ge, mul

import numpy as np

from .accumulator import snapshot
from .simplex import BlockUniforms, ftrl_weights, sample_index, space_masks

BERN_TOL = 1e-12
_REL_TOL = 1e-9

# Largest snapshot table over a space other than context ids, in contexts
# per round of the epoch; context ids (tabular envs) always get a table.
# Without a table every snapshot lookup is a one-row softmax; a table costs
# one batch row per context. Measured per simulated round of the
# paired-epoch learner (numpy 2.4.6, Python 3.11, 2-vCPU x86_64), a table
# breaks even at 20 to 38 contexts per round (sleeping K=6 and K=10, 63 and
# 1 023 subsets; auction K=13 on 64 atoms) and at 4 it cuts the cost of a
# round by 29% to 34%. The value is not that break-even: it is bound by
# perfbench/tests/test_perfbench.py, whose shrunken reductions_grid plan
# (epochs of 6 to 8 rounds over 63 to 64 contexts) must make no batched
# softmax call. Raise it towards the break-even when that test changes.
TABLE_ROWS_PER_ROUND = 4

# Largest tabulated space over which the learner keeps its exponent table
# (_Exponents). A rebuild follows each kept loss sample and costs 3 to 6 us
# plus 25 to 75 ns per context; a round that reads the table instead of
# evaluating the accumulator saves 2 us (context ids) to 3.5 us (masked
# subsets, affine atoms), whatever the number of contexts. Measured per
# rebuild and per round (numpy 2.4.6, Python 3.11, 2-vCPU x86_64, K = 6 to
# 21), a rebuild repays itself in 2 to 4 rounds at 63 to 128 contexts (one
# reading of 6), 4.5 to 6.3 at 255 and 256, 9 to 24 at 1 023 and 1 024,
# and 50 to 74 at 4 096. Kept samples came every 4.1 to 4.8 rounds on every
# run measured (tuned tabular C = 64 to 4 096, tuned and calibrated auction
# atoms and sleeping subsets), and at most one comes per pair of rounds.
# The bound is on the number of contexts only: the epoch length does not
# set how often the table is rebuilt, and K moves the rebuild cost little.
EXPONENT_TABLE_ROWS = 128


class ParamError(ValueError):
    pass


class OutOfOrderError(RuntimeError):
    pass


@dataclass(frozen=True)
class Params:
    """Learner parameters.

    conf is the log-scale confidence parameter (failure probability of the
    concentration events is exp(-conf) up to polynomial factors), epoch_len
    the even epoch length, gamma the frequency floor, eta the FTRL rate.
    """

    n_arms: int
    horizon: int
    conf: float
    epoch_len: int
    gamma: float
    eta: float

    def validate_structure(self):
        """Check what the learner needs to run at all: arm and horizon
        counts, an even epoch length that fits, positive finite rates."""
        K, T, L = self.n_arms, self.horizon, self.epoch_len
        if K < 2:
            raise ParamError(f"n_arms >= 2 violated: n_arms={K}")
        if T < K:
            raise ParamError(f"horizon >= n_arms violated: horizon={T}, n_arms={K}")
        if L < 2 or L % 2 != 0:
            raise ParamError(f"epoch_len must be even and >= 2: epoch_len={L}")
        if L > T:
            raise ParamError(f"epoch_len <= horizon violated: epoch_len={L}, horizon={T}")
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ParamError(f"gamma > 0 violated: gamma={self.gamma!r}")
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ParamError(f"eta > 0 violated: eta={self.eta!r}")
        if not (self.conf > 0 and np.isfinite(self.conf)):
            raise ParamError(f"conf > 0 violated: conf={self.conf!r}")

    def validate(self):
        """Structure plus the guarantee-side rate inequalities; raises
        ParamError naming the first violated invariant."""
        self.validate_structure()
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
    if K < 2:
        raise ParamError(f"n_arms >= 2 violated: n_arms={K}")
    if T < K:
        raise ParamError(f"horizon >= n_arms violated: horizon={T}, n_arms={K}")
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
    outside the Params invariants (the learner only checks structure, and
    `with_overrides` requires unsafe=True to produce them).
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

    Re-validates the result unless unsafe is set; a violated invariant is
    reported by name.
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


def _sum_rows(total, table, rows, div):
    """total + table[rows[0]]/div + table[rows[1]]/div + ... as one reduction
    over axis 0 with `total` as its first row. It adds the rows one at a
    time, in order, as a `+=` per row would, so the sum has the same bits."""
    return np.add.reduce(np.vstack((total, table[rows] / div)), axis=0)


class _SnapView:
    """Snapshot plus, over a finite context space, the table of its
    distributions at every context of the space (masks: the space_masks of
    its active sets), computed in one batch, so a lookup reads a row.
    Without a space, or at a context outside it, the row is computed per
    lookup. `row` serves a row as a list of floats (a table row is
    converted when first read)."""

    __slots__ = ("handle", "table", "_lists")

    def __init__(self, handle, space=None, masks=None):
        self.handle = handle
        if space is None:
            self.table = self._lists = None
        else:
            self.table = handle.weights_batch(space.index, masks)
            self.table.flags.writeable = False
            self._lists = [None] * len(space)

    def row(self, i, context, mask=None):
        """The distribution at `context`, whose table row is i (None: the
        table lacks it)."""
        if i is None:
            return self.handle.weights(context, mask).tolist()
        lists = self._lists
        row = lists[i]
        if row is None:
            row = lists[i] = self.table[i].tolist()
        return row


class _Exponents:
    """The FTRL exponents -eta * L(c, .) of the accumulator's sum L at every
    context c of a finite space, -inf off c's active set (masks: the
    space_masks of the space), as the rows of `table`, and each row's
    maximum in the list `tops`. The sum changes only when a loss sample is
    kept, so both are recomputed from acc.eval_batch only when acc.version
    has moved since they were built. They are built in the accumulator's
    (K, n) layout, where the row maxima are one reduction over axis 0 (a
    max is exact, so the layout cannot change it); `table` is its
    transposed view."""

    __slots__ = ("_acc", "_index", "_masks", "_neg_eta", "_version", "table", "tops")

    def __init__(self, acc, space, masks, eta):
        self._acc = acc
        self._index = space.index
        self._masks = None if masks is None else np.ascontiguousarray(masks.T)
        self._neg_eta = -eta
        self._version = None

    def row(self, i):
        """Row i of the table and its maximum, current with the
        accumulator."""
        acc = self._acc
        if acc.version != self._version:
            z = np.multiply(acc.eval_batch(self._index).T, self._neg_eta, order="C")
            if self._masks is not None:
                z = np.where(self._masks, z, -np.inf)
            self.tops = np.maximum.reduce(z, axis=0).tolist()
            self.table = z.T
            self._version = acc.version
        return self.table[i], self.tops[i]


class CrossLearner:
    """Plays the paired-epoch cross-learning strategy over one accumulator.

    active: None (every arm always active) or a callable context ->
    mask/None, an env's active_mask (ParamError otherwise).
    space: the env's finite ContextSpace, or None. It is tabulated when its
    contexts are ids or number at most TABLE_ROWS_PER_ROUND * epoch_len:
    each snapshot then holds its distributions at every context of the
    space, masked by the active sets read from `active` once, at
    construction (simplex.space_masks). A tabulated space of at most
    EXPONENT_TABLE_ROWS contexts also gets the FTRL exponents of the live
    accumulator (_Exponents, recomputed when a kept loss sample has changed
    the accumulator), so a round at one of its contexts reads its rows and
    calls ftrl_weights only to subtract, exponentiate and normalise.
    Elsewhere a round evaluates the accumulator at its context.
    reveal passed to step: callable arm -> LinearLoss of the played arm.

    A run is watched by reading the learner between steps: t, epoch,
    fallback_count, freq_estimate, the snapshots and their table, and
    last_kept, the (arm, loss_fn) of the latest loss sample added to the
    accumulator (None before the first); acc.version counts those samples.

    After the FTRL softmax a round works on Python floats: the play and
    snapshot distributions are lists. A frequency sample read from the
    next snapshot's table is recorded by row number and summed when the
    epoch ends (_flush_freq). The epoch length, horizon, eta and gamma are
    read from params once, at construction.
    """

    def __init__(self, params, accumulator, rng, active=None, space=None):
        params.validate_structure()
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
        self._exponents = None if space is None or len(space) > EXPONENT_TABLE_ROWS \
            else _Exponents(accumulator, space, self._masks, self._eta)
        self.fallback_count = 0
        self.last_kept = None
        self._t = 0
        self._epoch = 1
        self._paired_end = params.horizon - params.horizon % params.epoch_len
        K = params.n_arms
        self._freq = [0.0] * K
        self._freq_next = np.zeros(K)
        self._freq_rows = []  # next-snapshot table rows not yet in _freq_next
        self._snap_cur = self._view(snapshot(accumulator, self._eta))
        self._snap_next = self._view(snapshot(accumulator, self._eta))
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

    def _freq_div(self):
        return 2.0 * self._L if self._epoch == 1 else float(self._L)

    def _add_freq(self, i, context, mask):
        """Add the next snapshot's row at context (table row i, or None),
        over _freq_div, to the next epoch's frequency estimate; a table row
        is only recorded."""
        if i is None:
            self._flush_freq()
            self._freq_next += self._snap_next.handle.weights(context, mask) / self._freq_div()
        else:
            self._freq_rows.append(i)

    def _flush_freq(self):
        """Add the recorded table rows to the next epoch's estimate."""
        rows = self._freq_rows
        if rows:
            self._freq_next = _sum_rows(self._freq_next, self._snap_next.table, rows,
                                       self._freq_div())
            rows.clear()

    def _end_epoch(self):
        self._flush_freq()
        if self._snap_pending is None:
            # warm-up boundary: the FTRL state is still the initial one
            self._snap_pending = self._view(snapshot(self.acc, self._eta))
        self._snap_cur = self._snap_next
        self._snap_next = self._snap_pending
        self._snap_pending = None
        self._freq = self._freq_next.tolist()
        self._freq_next = np.zeros(self.params.n_arms)
        self._epoch += 1

    def step(self, context, reveal, t=None):
        """Play one round and return the chosen arm.

        Must be called exactly once per round in order; the optional t
        cross-checks the caller's round index (1-based).
        """
        t_next = self._t + 1
        if t is not None and t != t_next:
            raise OutOfOrderError(f"expected round {t_next}, got {t}")
        if t_next > self._horizon:
            raise OutOfOrderError(f"horizon {self._horizon} exhausted")
        self._t = t_next
        L = self._L
        rows = self._rows
        i = context if rows is None else rows.get(context)
        ex = self._exponents
        # a context with rows in both tables needs no mask: its rows carry it
        mask = None if i is not None and ex is not None else self._mask(context)
        gen = self._gen

        if t_next <= L:
            # warm-up epoch: uniform play, frequency accumulation for epoch 2
            arm = sample_index(self._snap_cur.row(i, context, mask), gen)
            reveal(arm)
            self._add_freq(i, context, mask)
            if t_next == L:
                self._end_epoch()
            return arm

        s = self._snap_cur.row(i, context, mask)
        if i is None or ex is None:
            p = ftrl_weights(np.multiply(self.acc.eval_column(context), -self._eta), mask)
        else:
            z, top = ex.row(i)
            p = ftrl_weights(z, None, top)
        q, fb = select_sampling_distribution(p.tolist(), s)
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
                self._snap_pending = self._view(snapshot(self.acc, self._eta))
            self._pending = (i, context, mask, arm, q[arm], s[arm], fn)
            return arm
        i1, c1, m1, a1, q1, s1, fn1 = self._pending
        self._pending = None
        if gen.random() < 0.5:  # the first round takes the frequency sample
            self._add_freq(i1, c1, m1)
            al, ql, sl, fnl = arm, q[arm], s[arm], fn
        else:
            self._add_freq(i, context, mask)
            al, ql, sl, fnl = a1, q1, s1, fn1
        if gen.random() < bernoulli_param(sl, ql):
            self.acc.add(al, estimate_weight(self._freq[al], self._gamma), fnl)
            self.last_kept = (al, fnl)
        if pos == L - 1:
            self._end_epoch()
        return arm
