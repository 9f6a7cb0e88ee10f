"""Set-up time probe, run in a fresh interpreter by ``run.py``.

It times importing ``cpshrink.cli`` (numpy included) and generating one
workload's inputs, then times the reference kernel in the same process, and
prints both in seconds: the set-up time and the mean kernel time.

Usage: python3 bench/setup_probe.py <src dir> <workload> <seed> <work dir>
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
src, workload, seed, workdir = sys.argv[1:5]
sys.path.insert(0, src)
import cpshrink.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(workload, int(seed), Path(workdir))
setup = perf_counter() - t0

import reference  # noqa: E402

print(setup, sum(reference.chunk() for _ in range(3)) / 3)
