"""Per-layer tracing of the crosslearn package from outside it.

A Tracer wraps the public functions and methods of the package's modules by
rebinding the module or class attribute (every module of the package that
imported a wrapped function by name is rebound too), records one span per
call, and puts every attribute back when it exits. Spans live in compact
arrays: span name, parent span, start and end in integer nanoseconds.

A span's self time is its duration minus the length of the union of its
direct children's intervals, each clipped to the span (`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = ("simplex", "accumulator", "learner", "baselines", "envs", "harness",
          "verify")

ACCUMULATORS = ("TabularAccumulator", "AffineAccumulator", "ConstantAccumulator")
ENVS = ("TabularEnv", "AuctionEnv", "SleepingEnv")


def _rows(tracer, args, result):
    tracer.counters["simplex.ftrl_weights_batch.rows"] += np.shape(args[0])[0]


def _add_bytes(entry_bytes):
    # Kahan sum plus compensation entry rewritten per loss coordinate
    def hook(tracer, args, result):
        tracer.counters["accumulator.add.bytes_computed"] += entry_bytes(args[0])
    return hook


def _state_bytes(tracer, args, result):
    size = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
    key = "accumulator.state_bytes"
    tracer.counters[key] = max(tracer.counters[key], size)


def _learner_made(tracer, args, result):
    tracer.learners.append(args[0])


def _csv_bytes(tracer, args, result):
    tracer.counters["harness.csv_bytes"] += len(result.encode())


# span name -> [(module, attribute or Class.method, hook or None)]. Spans
# not reported on their own feed a rate or gauge (learner.init,
# accumulator.make, bernoulli_param, estimate_weight) or are the workload's
# entry points (ENTRY_POINTS).
TARGETS = {
    "simplex.ftrl_weights": [("simplex", "ftrl_weights", None)],
    "simplex.ftrl_weights_batch": [("simplex", "ftrl_weights_batch", _rows)],
    "simplex.sample_index": [("simplex", "sample_index", None)],
    "accumulator.add": [
        ("accumulator", "TabularAccumulator.add", _add_bytes(lambda a: 16 * a.n_contexts)),
        ("accumulator", "AffineAccumulator.add", _add_bytes(lambda a: 32)),
        ("accumulator", "ConstantAccumulator.add", _add_bytes(lambda a: 16)),
    ],
    "accumulator.eval_column": [
        ("accumulator", f"{c}.eval_column", None)
        for c in ACCUMULATORS + ("SnapshotHandle",)],
    "accumulator.snapshot": [("accumulator", "snapshot", None)],
    "accumulator.make": [("accumulator", "make_accumulator", _state_bytes)],
    "learner.init": [("learner", "CrossLearner.__init__", _learner_made)],
    "learner.step": [("learner", "CrossLearner.step", None)],
    "learner.select": [("learner", "select_sampling_distribution", None)],
    "learner.snapshot_rebuild": [("learner", "_SnapView.__init__", None)],
    "learner.bernoulli_param": [("learner", "bernoulli_param", None)],
    "learner.estimate_weight": [("learner", "estimate_weight", None)],
    "baselines.known_nu.step": [("baselines", "KnownNuLearner.step", None)],
    "baselines.probe_table": [("baselines", "KnownNuLearner.probe_table", None)],
    "baselines.exp3.step": [("baselines", "PerContextExp3.step", None)],
    "envs.build": [("envs", "TabularEnv.synthetic", None),
                   ("envs", "AuctionEnv.generate", None),
                   ("envs", "SleepingEnv.generate", None)],
    "envs.context": [("envs", f"{c}.context", None) for c in ENVS],
    "envs.reveal": [("envs", f"{c}.reveal", None) for c in ENVS],
    "envs.regret_update": [("envs", "RegretTracker.update", None)],
    "envs.regret": [("envs", "RegretTracker.regret", None)],
    "harness.run_experiment": [("harness", "run_experiment", None)],
    "harness.run_single": [("harness", "run_single", None)],
    "harness.build_algo": [("harness", "build_algo", None)],
    "harness.write_csv": [("harness", "write_csv", _csv_bytes)],
    "verify.audit_run": [("verify", "audit_run", None)],
    "verify.audit_summary": [("verify", "audit_summary", None)],
    "verify.round_played": [("verify", "_AuditObserver.round_played", None)],
    "verify.estimate_recorded": [("verify", "_AuditObserver.estimate_recorded", None)],
    "verify.epoch_started": [("verify", "_AuditObserver.epoch_started", None)],
}

# Their self time (per-round loops, summaries) is attributed to no layer, so it
# counts as uncovered in trace.coverage, like time outside every span.
ENTRY_POINTS = ("harness.run_experiment", "verify.audit_run", "verify.audit_summary")

# per-layer metrics that run.per_layer measures next to the traced units
FROM_UNTRACED = ("harness.pool_util", "trace.overhead_frac")

# per-layer metrics in report order: (name, unit)
PER_LAYER = [
    ("simplex.ftrl_weights.calls", "count"),
    ("simplex.ftrl_weights.self_s", "s"),
    ("simplex.ftrl_weights_batch.calls", "count"),
    ("simplex.ftrl_weights_batch.rows", "count"),
    ("simplex.ftrl_weights_batch.self_s", "s"),
    ("simplex.sample_index.calls", "count"),
    ("simplex.sample_index.self_s", "s"),
    ("accumulator.add.calls", "count"),
    ("accumulator.add.self_s", "s"),
    ("accumulator.add.bytes_computed", "B"),
    ("accumulator.eval_column.calls", "count"),
    ("accumulator.eval_column.self_s", "s"),
    ("accumulator.snapshot.calls", "count"),
    ("accumulator.snapshot.self_s", "s"),
    ("accumulator.state_bytes", "B"),
    ("learner.step.calls", "count"),
    ("learner.step.self_s", "s"),
    ("learner.select.calls", "count"),
    ("learner.select.self_s", "s"),
    ("learner.snapshot_rebuild.calls", "count"),
    ("learner.snapshot_rebuild.self_s", "s"),
    ("learner.fallback_rate", "fraction"),
    ("learner.keep_rate", "fraction"),
    ("baselines.known_nu.step.calls", "count"),
    ("baselines.known_nu.step.self_s", "s"),
    ("baselines.probe_table.calls", "count"),
    ("baselines.probe_table.self_s", "s"),
    ("baselines.exp3.step.calls", "count"),
    ("baselines.exp3.step.self_s", "s"),
    ("envs.build.calls", "count"),
    ("envs.build.self_s", "s"),
    ("envs.context.calls", "count"),
    ("envs.context.self_s", "s"),
    ("envs.reveal.calls", "count"),
    ("envs.reveal.self_s", "s"),
    ("envs.regret_update.calls", "count"),
    ("envs.regret_update.self_s", "s"),
    ("envs.regret.calls", "count"),
    ("envs.regret.self_s", "s"),
    ("harness.run_single.calls", "count"),
    ("harness.run_single.self_s", "s"),
    ("harness.build_algo.self_s", "s"),
    ("harness.write_csv.self_s", "s"),
    ("harness.csv_bytes", "B"),
    ("harness.pool_util", "fraction"),
    ("verify.round_played.calls", "count"),
    ("verify.round_played.self_s", "s"),
    ("verify.estimate_recorded.calls", "count"),
    ("verify.estimate_recorded.self_s", "s"),
    ("verify.epoch_started.calls", "count"),
    ("verify.epoch_started.self_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage", "fraction"),
]


def self_times(parents, starts, ends):
    """Self time of every span: duration minus the union of its direct
    children's intervals clipped to the span.

    parents[i] is the index of span i's parent, or a negative number for a
    root. Times are integers (nanoseconds), which keeps the arithmetic
    exact. Returns an int64 array.
    """
    parents = np.asarray(parents, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    duration = ends - starts
    kids = np.flatnonzero(parents >= 0)
    if kids.size == 0:
        return duration
    p = parents[kids]
    lo = np.maximum(starts[kids], starts[p])
    hi = np.maximum(np.minimum(ends[kids], ends[p]), lo)
    # Sort children by (parent, start). Shifting each parent's group by a
    # stride larger than any time makes one running maximum of the shifted
    # ends restart at every group, so each child adds only the part of its
    # interval past the ends of the earlier children of its parent.
    base = int(lo.min())
    lo, hi = lo - base, hi - base
    stride = int(hi.max()) + 1
    order = np.lexsort((lo, p))
    p, lo, hi = p[order], lo[order], hi[order]
    _, group = np.unique(p, return_inverse=True)
    if (int(group.max()) + 1) * stride >= 2 ** 62:
        raise OverflowError("span times too large for exact arithmetic")
    shift = group.astype(np.int64) * stride
    lo, hi = lo + shift, hi + shift
    reach = np.maximum.accumulate(hi)
    prev = np.concatenate(([np.iinfo(np.int64).min], reach[:-1]))
    added = np.maximum(hi - np.maximum(lo, prev), 0)
    cover = np.zeros(parents.size, dtype=np.int64)
    np.add.at(cover, p, added)
    return duration - cover


class Tracer:
    """Context manager: wraps every TARGETS entry on enter, restores on exit."""

    def __init__(self):
        self.span_names = list(TARGETS)
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counters = dict.fromkeys(
            ["simplex.ftrl_weights_batch.rows", "accumulator.add.bytes_computed",
             "accumulator.state_bytes", "harness.csv_bytes"], 0)
        self.learners = []
        self.window = (0, 0)
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name_id, hook):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _rebind(self, owner, key, value):
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in list(sys.modules.items())
                   if name == "crosslearn" or name.startswith("crosslearn.")]
        try:
            for name_id, span in enumerate(self.span_names):
                for module_name, attr, hook in TARGETS[span]:
                    module = importlib.import_module(f"crosslearn.{module_name}")
                    if "." in attr:
                        cls_name, method = attr.split(".")
                        cls = getattr(module, cls_name)
                        orig = vars(cls)[method]
                        if isinstance(orig, classmethod):
                            new = classmethod(self._wrap(orig.__func__, name_id, hook))
                        else:
                            new = self._wrap(orig, name_id, hook)
                        self._rebind(cls, method, new)
                        continue
                    orig = getattr(module, attr)
                    new = self._wrap(orig, name_id, hook)
                    for mod in package:
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                self._rebind(mod, key, new)
        except BaseException:
            self._restore()
            raise
        self.window = (time.perf_counter_ns(), 0)
        return self

    def __exit__(self, *exc):
        self.window = (self.window[0], time.perf_counter_ns())
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def summary(self):
        """Per span name: calls, total and self seconds; plus the coverage:
        the share of the traced window spent in the self time of layer
        spans, that is, neither outside every span nor in ENTRY_POINTS."""
        w0, w1 = self.window
        n = len(self.starts)
        parents = np.frombuffer(self.parents, dtype=np.int64).copy()
        parents[parents < 0] = n  # roots hang off a span covering the window
        starts = np.append(np.frombuffer(self.starts, dtype=np.int64), w0)
        ends = np.append(np.frombuffer(self.ends, dtype=np.int64), w1)
        parents = np.append(parents, -1)
        own = self_times(parents, starts, ends)
        names = np.frombuffer(self.names, dtype=np.int32)
        k = len(self.span_names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=(ends - starts)[:n], minlength=k)
        self_ns = np.bincount(names, weights=own[:n], minlength=k)
        spans = {name: {"calls": int(calls[i]), "total_s": total[i] / 1e9,
                        "self_s": self_ns[i] / 1e9}
                 for i, name in enumerate(self.span_names)}
        entry = sum(self_ns[self.span_names.index(name)] for name in ENTRY_POINTS)
        window = max(w1 - w0, 1)
        return spans, float(1.0 - (own[n] + entry) / window)


def layer_metrics(spans, counters, learners, coverage):
    """The PER_LAYER values of one traced unit, but for FROM_UNTRACED."""
    out = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span in spans and field in ("calls", "self_s"):
            out[name] = spans[span][field]
        elif name in counters:
            out[name] = counters[name]
    rounds = sum(lrn.t for lrn in learners)
    out["learner.fallback_rate"] = (
        sum(lrn.fallback_count for lrn in learners) / rounds if rounds else 0.0)
    offered = spans["learner.bernoulli_param"]["calls"]
    out["learner.keep_rate"] = (
        spans["learner.estimate_weight"]["calls"] / offered if offered else 0.0)
    out["trace.coverage"] = coverage
    missing = [name for name, _ in PER_LAYER
               if name not in out and name not in FROM_UNTRACED]
    if missing:
        raise KeyError(f"per-layer metrics without a source: {missing}")
    return out
