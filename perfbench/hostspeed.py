"""Host-speed calibration of the benchmark's timings.

On a shared host the speed of interpreted, numpy-heavy code drifts by up to
about 1.5x over seconds to minutes (other tenants contend for the cores and
caches; no steal time shows it), so a raw wall time measures the neighbours
as much as the program. The benchmark therefore times a fixed kernel
before a unit's first public call and after each call (and so around its
set-up probes). The kernel imports
nothing from crosslearn: a small per-context Exp3 (per round a softmax over
one column of a (K, C) table, a cumulative-sum sample, an importance-weighted
update and some dict traffic), the same mix of interpreter and small-array
work as the learner's rounds. A kernel timing is PASSES times the median of
PASSES short passes, so one preemption inside it does not count. A unit
that took t seconds while its kernel timings averaged k is reported as

    t * REFERENCE_S / k

that is, in seconds on a host where a kernel timing reads REFERENCE_S.
Times add up, so the mean kernel timing over the unit matches a unit that
ran partly in fast and partly in slow spells, and it follows the drift over
seconds to minutes that moves whole runs. A change to crosslearn cannot
change the kernel, so it moves a reported time by exactly the factor it
moves the raw time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.020  # one kernel timing on the reference host
PASSES = 5
ROUNDS = 250  # per pass
N_ARMS, N_CONTEXTS = 8, 64


def kernel():
    """A small per-context Exp3 on a fixed random stream."""
    rng = np.random.default_rng(0)
    table = np.zeros((N_ARMS, N_CONTEXTS))
    counts = {}
    slots = [{"v": i} for i in range(256)]
    for i in range(ROUNDS):
        c = int(rng.integers(N_CONTEXTS))
        col = table[:, c]
        w = np.exp(-(col - col.min()) * 0.1)
        w /= w.sum()
        a = min(int(np.searchsorted(np.cumsum(w), rng.random())), N_ARMS - 1)
        table[a, c] += rng.random() / w[a]
        counts[a, c] = counts.get((a, c), 0) + 1
        slots[i % 256]["v"] += a
    return table


def kernel_seconds():
    """PASSES times the median wall time of PASSES kernel passes."""
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return PASSES * statistics.median(times)


def scaled(seconds, kernel_s):
    """A time measured while the kernel took kernel_s, in reference seconds."""
    return seconds * REFERENCE_S / kernel_s
