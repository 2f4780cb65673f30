"""Set-up cost of one workload in a fresh interpreter: importing crosslearn
plus validating the workload's configs (tune_parameters for the audit).

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds that take once numpy is imported, then the seconds the
numpy import took. numpy's import is left out of the set-up time: it is not
crosslearn's code, and on a shared host its duration swings by 2x over
minutes apart from the host's CPU speed.
"""

import sys
import time

t0 = time.perf_counter()

import numpy  # noqa: E402,F401

t1 = time.perf_counter()

import workloads  # noqa: E402  (imports crosslearn)

workloads.make_plan(sys.argv[1], int(sys.argv[2])).validate()
print(repr(time.perf_counter() - t1), repr(t1 - t0))
