"""The host's current speed, for scaling measured times to a nominal host.

On a shared virtual machine the same fixed computation can run up to 2x
slower for seconds at a time, and whole minutes can be 20-30% slower than
the minutes before. A run of this benchmark cannot average that away, so
every time it reports is scaled to a nominal host speed:

    t_nominal = t_measured * NOMINAL_S / c

where c is the median time of a fixed calibration mix and NOMINAL_S is that mix's time on the reference host when it is calm. The
mix uses only the standard library and numpy, never pmctag, and it never
runs at the same time as the timed step, so a change to the program moves
the scaled times by the same share as the raw ones; what cancels is the
host. The raw times are printed next to the scaled ones and kept in
record.json.

The samples that give c are the ones taken near the step, on the same
CPU. A CLI child or a set-up, which runs for seconds, is scaled by the
samples within 1.5 s of it: short bursts right before and after it and
the samples of the decode passes next to it. A block of a few sentences
in the per-sentence loop is scaled by the samples just before and after
it. The host's speed switches between a fast and a slow state several
times a second, separately on each vCPU, so run.py pins itself and its
children to one CPU; samples from the other CPU would track the timed
work less well.

The mix has four parts, one for each kind of work pmctag's hot paths do:
an interpreted integer loop, dict lookups with tuple keys (about a third
of them missing), small matrix-vector products through numpy, and
zero-filling a 4 MiB buffer, as building tables and loading a model do.
The dict fits in the CPU caches: lookups into one larger than the caches
slowed down up to 4x in the slow state, far more than the CLI did, and
overcorrected its times. Without the buffer, the mix tracked `pmctag
train`, which allocates the most, no better than no scaling at all.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time

import numpy as np

# about the median seconds of one sample() on the reference host (2-vCPU
# shared VM, Python 3.11, numpy 2.4) in a calm minute
NOMINAL_S = 1.05e-3

TABLE_SIZE = 3_000
LOOKUPS = 3_000
LOOP = 8_000
PRODUCTS = 150
BUFFER_BYTES = 4 << 20


class HostSpeed:
    """Times the calibration mix and keeps every sample with its start time."""

    def __init__(self):
        rng = random.Random(2102_11037)  # fixed: the mix is the same on every run
        self._table = {(f"w{i}", i % 10): float(i) for i in range(TABLE_SIZE)}
        self._keys = [(f"w{rng.randrange(TABLE_SIZE)}", rng.randrange(15))
                      for _ in range(LOOKUPS)]
        matrix = np.random.default_rng(11037).random((10, 10))
        self._matrix = matrix / matrix.sum(axis=0)
        self._vector = np.full(10, 0.1)
        self.log: list[tuple[float, float]] = []  # (perf_counter at start, seconds)
        self.sample()  # first call pays for lazy set-up inside numpy
        self.log.clear()

    def sample(self):
        """Time one pass of the mix and log it."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(LOOP):
            acc += i * i % 7
        table, total = self._table, 0.0
        for key in self._keys:
            total += table.get(key, 0.0)
        x, matrix = self._vector, self._matrix
        for _ in range(PRODUCTS):
            x = matrix @ x
        bytearray(BUFFER_BYTES)  # allocated, zero-filled and freed
        self.log.append((t0, time.perf_counter() - t0))

    def burst(self, seconds: float):
        """Samples taken back to back for about `seconds`, and at least one."""
        end = time.perf_counter() + seconds
        self.sample()
        while time.perf_counter() < end:
            self.sample()

    def factor(self, start: float, end: float, margin: float) -> float:
        """Factor that turns a time measured from start to end into nominal time.

        It uses the samples that began within `margin` seconds of the span.
        """
        lo = bisect.bisect_left(self.log, (start - margin,))
        hi = bisect.bisect_right(self.log, (end + margin, math.inf))
        samples = [seconds for _, seconds in self.log[lo:hi]]
        if not samples:
            raise ValueError("no host-speed sample near the timed span")
        return NOMINAL_S / statistics.median(samples)
