"""crosslearn benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload synthetic_grid --seed 0 --seconds 30 --trace 0

--trace 0 repeats the workload's unit untraced for --seconds seconds (after
one warm-up unit), with set-up probes in fresh interpreters between units,
and reports the end-to-end metrics: medians over units of wall and CPU time,
µs per simulated round, peak resident memory, and the median set-up time
(after numpy's import). Every time is scaled to the reference host speed
of hostspeed.py by a calibration kernel timed between the unit's calls or
set-up probes. --trace 1 runs the unit serially under the layer tracer,
next to untraced units, and reports the per-layer metrics. Every unit's output is checked against reference.json; traced
units must also match the untraced output exactly.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A result file with the library versions,
nproc, CROSSLEARN_THREADS, the git commit and the seeds goes to
perfbench/out/. Exit status: 0 all outputs correct, 1 an output differed
or raised, 2 usage error or no crosslearn sources next to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "crosslearn")

WORKLOADS = ("synthetic_grid", "reductions_grid", "tuned_audit")
END_TO_END = [("wall_s", "s"), ("us_per_round", "us"), ("cpu_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
MIN_UNITS = 3        # timed units per end-to-end run, besides the warm-up
PROBES_PER_UNIT = 3  # set-up probes in fresh interpreters after each unit
PROBE_TIMEOUT_S = 30


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(kids_kb):
    """Peak RSS of this process or of its pool workers, whose peak kids_kb
    was read before the set-up probes became children too."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, kids_kb) / 1024.0


class Tally:
    """Counts runs attempted and failed; a unit that raises fails all its runs."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, plan, measure):
        self.attempted += len(plan.keys)
        try:
            rep = measure()
        except Exception:
            traceback.print_exc()
            self.failed += len(plan.keys)
            return None
        bad = self.wl.check(plan, rep[-1], self.reference)
        self.failed += bad
        return rep if bad == 0 else None


def more(deadline, seconds, short):
    """Keep measuring until the deadline, and past it while too few units
    succeeded, for at most another `seconds`."""
    now = time.perf_counter()
    return now < deadline or (short and now < deadline + seconds)


class Clock:
    """Times calls, with a calibration kernel timed on creation and after
    each call; times measured meanwhile are scaled by the mean kernel."""

    def __init__(self):
        self.kernels = [hostspeed.kernel_seconds()]
        self.walls = []
        self.cpus = []

    def __call__(self, fn):
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        result = fn()
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(cpu_seconds() - c0)
        self.kernels.append(hostspeed.kernel_seconds())
        return result

    def scaled(self, seconds):
        return hostspeed.scaled(seconds, statistics.fmean(self.kernels))


def clocked(plan):
    clock = Clock()
    return clock, plan.run(clock)


def setup_probes(plan):
    """PROBES_PER_UNIT fresh interpreters' set-up seconds, as measured inside
    each and scaled by the kernel timings around them, in (scaled, raw,
    numpy import) triples."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           plan.name, str(plan.seed)]

    def probe():
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        return tuple(map(float, out.stdout.split()[-2:]))

    clock = Clock()
    raw = [clock(probe) for _ in range(PROBES_PER_UNIT)]
    return [(clock.scaled(setup), setup, numpy_s) for setup, numpy_s in raw]


def end_to_end(plan, tally, seconds):
    deadline = time.perf_counter() + seconds
    tally.run(plan, lambda: (plan.run(),))  # warm-up, checked but not timed
    pool_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup_probes(plan)  # warm-up
    units, setups = [], []
    while more(deadline, seconds, len(units) < MIN_UNITS):
        rep = tally.run(plan, lambda: clocked(plan))
        if rep is not None:
            clock = rep[0]
            wall, cpu = sum(clock.walls), sum(clock.cpus)
            units.append((clock.scaled(wall), clock.scaled(cpu), wall, cpu))
        setups.extend(setup_probes(plan))
    if not units:
        return {}, {}
    wall, cpu, raw_wall, raw_cpu = (
        statistics.median(u[i] for u in units) for i in range(4))
    metrics = {"wall_s": wall, "us_per_round": wall / plan.rounds * 1e6,
               "cpu_s": cpu, "setup_s": statistics.median(s[0] for s in setups),
               "peak_rss_mb": peak_rss_mb(pool_peak)}
    return metrics, {
        "wall_s": [u[0] for u in units], "cpu_s": [u[1] for u in units],
        "setup_s": [s[0] for s in setups], "raw_wall_s": [u[2] for u in units],
        "raw_cpu_s": [u[3] for u in units], "raw_setup_s": [s[1] for s in setups],
        "numpy_import_s": [s[2] for s in setups],
        "raw_medians": {"wall_s": raw_wall, "cpu_s": raw_cpu,
                        "setup_s": statistics.median(s[1] for s in setups)},
        "units": len(units), "rounds_per_unit": plan.rounds}


def bracketed(run):
    """(scaled wall, outcome) of run(), timed as one call of a Clock."""
    clock = Clock()
    outcome = clock(run)
    return clock.scaled(clock.walls[0]), outcome


def per_layer(layers, plan, tally, seconds):
    """Untraced units of the workload as configured (pool utilisation), of
    its serial form (tracing overhead base), and traced serial units; the
    last two with scaled walls."""
    serial = plan.serial()
    deadline = time.perf_counter() + seconds
    tally.run(plan, lambda: (plan.run(),))  # warm-up
    pool_utils, base_walls, traced_walls, reps = [], [], [], []
    while more(deadline, seconds, not reps):
        rep = tally.run(plan, lambda: bracketed(plan.run))
        if rep is not None and plan.workers > 1:
            out = rep[-1]
            pool_utils.append(out.sim_s / (plan.workers * out.experiment_s))
        base = rep if serial is plan else tally.run(
            serial, lambda: bracketed(serial.run))
        tracer = layers.Tracer()

        def traced():
            with tracer:
                return serial.run()

        traced_rep = tally.run(serial, lambda: bracketed(traced))
        if traced_rep is not None and base is not None:
            if serial.fingerprint(traced_rep[-1].output) != serial.fingerprint(base[-1].output):
                tally.failed += len(serial.keys)
                continue
            base_walls.append(base[0])
            traced_walls.append(traced_rep[0])
            spans, coverage = tracer.summary()
            reps.append((spans, layers.layer_metrics(
                spans, tracer.counters, tracer.learners, coverage)))
    if not reps:
        return {}, {}
    measured = {
        name: statistics.median(m[name] for _, m in reps)
        for name in reps[0][1]}
    measured["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(base_walls) - 1.0)
    measured["harness.pool_util"] = statistics.median(pool_utils) if pool_utils else 0.0
    metrics = {name: measured[name] for name, _ in layers.PER_LAYER}
    return metrics, {"traced_wall_s": traced_walls, "untraced_serial_wall_s": base_walls,
                     "pool_util": pool_utils, "spans": reps[-1][0]}


def source_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(wl):
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "nproc": wl.nproc(), "cpu_count": os.cpu_count(),
        "CROSSLEARN_THREADS": os.environ.get("CROSSLEARN_THREADS"),
        "git_commit": wl.git_commit(), "src_sha256": source_digest(),
        "platform": platform.platform(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no crosslearn sources at {PACKAGE}", file=sys.stderr)
        return 2

    import workloads as wl

    reference = wl.load_reference()
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    plan = wl.make_plan(args.workload, args.seed)
    tally = Tally(wl, reference)
    if args.trace:
        import layers

        metrics, samples = per_layer(layers, plan, tally, args.seconds)
        units = dict(layers.PER_LAYER)
    else:
        metrics, samples = end_to_end(plan, tally, args.seconds)
        units = dict(END_TO_END)
    failed_frac = tally.failed / tally.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "run_seeds": plan.seeds,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(wl),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": failed_frac, "metrics": metrics, "samples": samples,
    }
    path = os.path.join(wl.OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if "raw_medians" in samples:
        print(f"{args.workload} unscaled medians: " + ", ".join(
            f"{name} = {value:.6g} s" for name, value in samples["raw_medians"].items()))
    print(f"{args.workload} failed_frac = {failed_frac:.6g} fraction "
          f"({tally.failed} of {tally.attempted} runs)")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
