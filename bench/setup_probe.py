"""Time one set-up of a workload in a fresh interpreter.

    python bench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is: import the library (numpy included), build the workload's inputs
(specs, triples, points, spec files under WORKDIR) and run its smoke
operation once.  Prints the seconds from this script's first statement to
the end of that operation.  References are not computed here.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import env  # noqa: E402

env.use_source_tree()

import workloads  # noqa: E402


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    _ops, smoke, _cli = workloads.build(name, seed, workdir)
    smoke.run()
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
