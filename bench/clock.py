"""Machine-speed calibration for timings taken on a shared machine.

On a shared 2-core machine the speed of the benchmark's core flips
between about 1x and 1.7x slower within fractions of a second, as other
tenants come and go, and it changes for all Python code alike.  So the
benchmark runs a fixed pure-Python loop between the jobs it times and
scales each job to a reference speed, at which the loop takes
REF_SECONDS:

    scaled = measured * REF_SECONDS / min(loop before, loop after)

The smaller of the two neighbouring loop times is the machine's state
around the job with the odd interrupted loop left out.  The loop is
benchmark code, so a change to `tripart` moves scaled timings exactly as
it moves raw ones.  Over six 20 s runs of the fans workload on a 2-core
machine, scaling cut the spread (interquartile range over median) of
throughput from 0.25 to 0.04 and of p50 latency to 0.03.
"""

import math
import time

ITERATIONS = 5_000
REF_SECONDS = 0.0015
EVERY_SECONDS = 0.05  # of timed work between two loops


def loop_seconds() -> float:
    """Wall time of one pass of the calibration loop."""
    start = time.perf_counter()
    acc = 0.0
    pts = []
    for i in range(ITERATIONS):
        x = (i * 0.618) % 1.0
        p = (x, 1.0 - x)
        pts.append(p)
        acc += math.hypot(*p)
    return time.perf_counter() - start


class Timeline:
    """Calibration loops interleaved with timed work.

    Call `mark()` before a piece of work to get its slot, `after(seconds)`
    once it is timed, and `close()` when all work is done; `slowdown(slot)`
    then gives the factor to divide that work's time by."""

    def __init__(self):
        self.loops = [loop_seconds()]
        self._since = 0.0

    def mark(self) -> int:
        return len(self.loops) - 1

    def after(self, seconds: float) -> None:
        self._since += seconds
        if self._since >= EVERY_SECONDS:
            self.close()

    def close(self) -> None:
        self.loops.append(loop_seconds())
        self._since = 0.0

    def slowdown(self, slot: int) -> float:
        return min(self.loops[slot], self.loops[slot + 1]) / REF_SECONDS
