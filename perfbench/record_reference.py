"""Record the reference outputs that the benchmark checks every run against.

For every run seed in the pool, runs each workload's calls serially on that
seed alone and stores a digest of each run's CSV rows (grids) or epoch
records plus audit tallies (audit). Runs are independent of each other, so a
unit over any subset of the pool must reproduce these digests.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl


def main():
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    reference = {"recorded_at": wl.git_commit(), "seed_pool": wl.SEED_POOL}
    for workload in wl.WORKLOADS:
        entries = {}
        for seed in range(wl.SEED_POOL):
            plan = wl.plan_for(workload, [seed], 1)
            outcome = plan.run()
            if isinstance(plan, wl.GridPlan):
                header, blocks = plan.outputs(outcome.output)
                reference["csv_header"] = header
                entries.update(blocks)
            else:
                (key, dg, counts), = plan.fingerprint(outcome.output)[0]
                entries[key] = {"digest": dg, "counts": counts}
            print(f"{workload} seed {seed}: {len(entries)} runs", file=sys.stderr)
        reference[workload] = entries
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
