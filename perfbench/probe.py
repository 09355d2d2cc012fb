"""Set-up probe: a fresh process that imports the library, builds the
workload's inputs and runs its first op, then prints `done <package file>`.

    python3 perfbench/probe.py WORKLOAD SEED

run.py times it from spawn to that line.
"""

import sys

import conformal_metrics
import workloads

if __name__ == "__main__":
    ops = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    ops[0].run()
    print("done", conformal_metrics.__file__, flush=True)
