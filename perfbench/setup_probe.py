"""Time one cold set-up of a workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <workdir>``;
prints the seconds from before the first import to the end of
:func:`workloads.set_up`, first at the nominal host speed (see
:mod:`reference`), then raw.
"""

import time

from reference import reference_s, scaled

BEFORE = reference_s()
STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.set_up(workloads.WORKLOADS[name], seed, workdir)
    elapsed = time.perf_counter() - STARTED
    print(scaled(elapsed, BEFORE, reference_s()), elapsed)
