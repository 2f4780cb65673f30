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

import numpy as np

from .accumulator import snapshot
from .simplex import BlockUniforms, ftrl_weights, mask_lookup, sample_index

BERN_TOL = 1e-12
_REL_TOL = 1e-9

WARMUP = "warmup"
FREQ_ROUND = "F"
LOSS_ROUND = "L"
LEFTOVER = "leftover"


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


def calibrated_params(n_arms, horizon, eta_scale=2.0, gamma_scale=0.5,
                      l_scale=0.4):
    """Desk-scale constants preserving the tuned shapes: epoch_len ~
    sqrt(K*T/log K), gamma ~ 1/epoch_len, eta ~ 1/epoch_len.

    The theorem-faithful constants in `tune_parameters` are so conservative
    that at horizons below ~10^6 the FTRL state barely moves; these values
    trade the worst-case guarantee for visible sqrt(K*T) behavior and sit
    outside the Params invariants (the learner only checks structure, and
    `with_overrides` requires unsafe=True to produce them).
    """
    base = tune_parameters(n_arms, horizon)
    L = _round_even_clamped(
        l_scale * math.sqrt(n_arms * horizon / math.log(n_arms)), horizon
    )
    gamma = gamma_scale / L
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


def select_sampling_distribution(p, s, mask=None):
    """Rejection fallback: returns (q, fallback) with q = p when p >= s/2
    on every active arm (ties count as no fallback), else q = s. FTRL
    distributions are exactly zero off their active set, so for them the
    test without a mask decides the same as the masked one."""
    if mask is None:
        ok = np.logical_and.reduce(p >= 0.5 * s)
    else:
        ok = bool((p[mask] >= 0.5 * s[mask]).all())
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


@dataclass
class RoundRecord:
    t: int
    context: object
    arm: int
    fallback: bool
    bern: bool
    role: str
    loss_value: float


class LearnerObserver:
    """No-op hooks for auditing; see crosslearn.verify."""

    def epoch_started(self, learner, epoch):
        pass

    def round_played(self, learner, t, epoch, fallback):
        pass

    def estimate_recorded(self, learner, t, arm, weight, loss_fn):
        pass


class _SnapView:
    """Snapshot plus a precomputed distribution table (finite context
    spaces) or, without one, an optional per-context memo of the
    distributions served so far, so per-round lookups stay O(K). A frozen
    snapshot's distribution at a context never changes, and the mask is a
    function of the context."""

    __slots__ = ("handle", "table", "_memo")

    def __init__(self, handle, n_contexts=None, masks=None, memo=True):
        self.handle = handle
        self._memo = {} if memo else None
        if n_contexts is None:
            self.table = None
        else:
            self.table = handle.weights_batch(np.arange(n_contexts), masks)

    def weights(self, context, mask=None):
        if self.table is not None:
            return self.table[context]
        if self._memo is None:
            return self.handle.weights(context, mask)
        w = self._memo.get(context)
        if w is None:
            w = self.handle.weights(context, mask)
            w.flags.writeable = False
            self._memo[context] = w
        return w


class CrossLearner:
    """Plays the paired-epoch cross-learning strategy over one accumulator.

    active: None (every arm always active), a (C, K) boolean matrix indexed
    by integer context ids, or a callable context -> mask/None.
    contexts_repeat: False when no context is expected twice (continuous
    auction values); snapshots then keep no per-context memo.
    reveal passed to step: callable arm -> LinearLoss of the played arm.
    """

    def __init__(self, params, accumulator, rng, active=None,
                 record_rounds=False, observer=None, contexts_repeat=True):
        params.validate_structure()
        self.params = params
        self.acc = accumulator
        self.rng = rng
        self._gen = BlockUniforms(rng.gen)
        if accumulator.n_arms != params.n_arms:
            raise ParamError("accumulator and params disagree on the number of arms")
        self._mask = mask_lookup(active)
        self._table_masks = active if isinstance(active, np.ndarray) else None
        # snapshot tables cover every context id of a tabular accumulator;
        # a callable gives no masks up front, so its rows are served per context
        self._n_contexts = (getattr(accumulator, "n_contexts", None)
                            if active is None or self._table_masks is not None else None)
        self._contexts_repeat = contexts_repeat
        self.fallback_count = 0
        self.records = [] if record_rounds else None
        self.observer = observer
        self._t = 0
        self._epoch = 1
        self._full_epochs = params.horizon // params.epoch_len
        K = params.n_arms
        self._freq = np.zeros(K)
        self._freq_next = np.zeros(K)
        self._snap_cur = self._view(snapshot(accumulator, params.eta))
        self._snap_next = self._view(snapshot(accumulator, params.eta))
        self._snap_pending = None
        self._pending = None
        if observer is not None:
            observer.epoch_started(self, 1)

    def _view(self, handle):
        return _SnapView(handle, self._n_contexts, self._table_masks, self._contexts_repeat)

    @property
    def t(self):
        return self._t

    @property
    def epoch(self):
        return self._epoch

    @property
    def freq_estimate(self):
        return self._freq.copy()

    @property
    def snapshot_current(self):
        return self._snap_cur.handle

    @property
    def snapshot_next(self):
        return self._snap_next.handle

    def _record(self, t, context, arm, fallback, bern, role, loss_value):
        rec = None
        if self.records is not None:
            rec = RoundRecord(t, context, arm, fallback, bern, role, loss_value)
            self.records.append(rec)
        return rec

    def _end_epoch(self):
        if self._snap_pending is None:
            # warm-up boundary: the FTRL state is still the initial one
            self._snap_pending = self._view(snapshot(self.acc, self.params.eta))
        self._snap_cur = self._snap_next
        self._snap_next = self._snap_pending
        self._snap_pending = None
        self._freq = self._freq_next
        self._freq_next = np.zeros(self.params.n_arms)
        self._epoch += 1
        if self.observer is not None:
            self.observer.epoch_started(self, self._epoch)

    def step(self, context, reveal, t=None):
        """Play one round and return the chosen arm.

        Must be called exactly once per round in order; the optional t
        cross-checks the caller's round index (1-based).
        """
        t_next = self._t + 1
        if t is not None and t != t_next:
            raise OutOfOrderError(f"expected round {t_next}, got {t}")
        if t_next > self.params.horizon:
            raise OutOfOrderError(f"horizon {self.params.horizon} exhausted")
        self._t = t_next
        L = self.params.epoch_len
        mask = self._mask(context)
        gen = self._gen

        if t_next <= L:
            # warm-up epoch: uniform play, frequency accumulation for epoch 2
            w = self._snap_cur.weights(context, mask)
            arm = sample_index(w, gen)
            fn = reveal(arm)
            self._freq_next += self._snap_next.weights(context, mask) / (2.0 * L)
            self._record(t_next, context, arm, False, False, WARMUP,
                         fn.eval(context) if self.records is not None else 0.0)
            if self.observer is not None:
                self.observer.round_played(self, t_next, self._epoch, False)
            if t_next == L:
                self._end_epoch()
        elif t_next > self._full_epochs * L:
            # horizon not divisible by the epoch length: play on without
            # producing estimates, from the state frozen at the last boundary
            s = self._snap_cur.weights(context, mask)
            p = ftrl_weights(self.acc.eval_column(context), self.params.eta, mask)
            q, fb = select_sampling_distribution(p, s)
            arm = sample_index(q, gen)
            fn = reveal(arm)
            self.fallback_count += fb
            self._record(t_next, context, arm, fb, False, LEFTOVER,
                         fn.eval(context) if self.records is not None else 0.0)
            if self.observer is not None:
                self.observer.round_played(self, t_next, self._epoch, fb)
        else:
            pos = (t_next - 1) % L
            s = self._snap_cur.weights(context, mask)
            p = ftrl_weights(self.acc.eval_column(context), self.params.eta, mask)
            q, fb = select_sampling_distribution(p, s)
            arm = sample_index(q, gen)
            fn = reveal(arm)
            self.fallback_count += fb
            if self.observer is not None:
                self.observer.round_played(self, t_next, self._epoch, fb)
            if pos % 2 == 0:
                if pos == L - 2:
                    # the pair playing this state is the epoch's last: its
                    # distribution becomes the snapshot two epochs ahead
                    self._snap_pending = self._view(snapshot(self.acc, self.params.eta))
                rec = self._record(t_next, context, arm, fb, False, FREQ_ROUND,
                                   fn.eval(context) if self.records is not None else 0.0)
                self._pending = (context, mask, arm, float(q[arm]), float(s[arm]), fn, rec)
            else:
                c1, m1, a1, q1, s1, fn1, rec1 = self._pending
                self._pending = None
                rec2 = self._record(t_next, context, arm, fb, False, FREQ_ROUND,
                                    fn.eval(context) if self.records is not None else 0.0)
                first_takes_freq = gen.random() < 0.5
                if first_takes_freq:
                    cf, mf = c1, m1
                    cl, al, ql, sl, fnl, recl = context, arm, float(q[arm]), float(s[arm]), fn, rec2
                else:
                    cf, mf = context, mask
                    cl, al, ql, sl, fnl, recl = c1, a1, q1, s1, fn1, rec1
                self._freq_next += self._snap_next.weights(cf, mf) / float(L)
                keep = gen.random() < bernoulli_param(sl, ql)
                if keep:
                    w = estimate_weight(self._freq[al], self.params.gamma)
                    self.acc.add(al, w, fnl)
                    if self.observer is not None:
                        self.observer.estimate_recorded(self, t_next, al, w, fnl)
                if recl is not None:
                    recl.role = LOSS_ROUND
                    recl.bern = keep
                if pos == L - 1:
                    self._end_epoch()
        return arm
