"""Host-speed reference: a fixed numpy kernel timed between commands.

This host runs in phases: over seconds to minutes, all work in the process
slows down or speeds up alike, by up to 2x, with no steal time to show for it.
The benchmark times ``chunk()`` before the first command of a pass and after
every command. A chunk's time over ``QUIET_S`` is the host's slowdown at that
moment, and each command's time is divided by the mean slowdown of the chunks
on either side of it. The kernel does not touch cpshrink, so a change to the
program moves the commands' times but not the reference.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# batched SVD of small complex matrices, the kind of work the ascent does
_rng = np.random.default_rng(2010)
_BATCH = _rng.standard_normal((600, 6, 6)) + 1j * _rng.standard_normal((600, 6, 6))
CALLS = 5

# chunk() in a fast phase of a 2-core Xeon (Python 3.11, numpy 2.4, OpenBLAS 0.3.31)
QUIET_S = 0.027


def chunk() -> float:
    """Seconds one run of the reference kernel takes."""
    t0 = perf_counter()
    for _ in range(CALLS):
        np.linalg.svd(_BATCH)
    return perf_counter() - t0
