"""Op clock that factors the machine's momentary speed out of the timings.

On a shared machine the same op list can run 1.5x slower in one minute than
in the next, because other tenants contend for the core; a run-to-run spread
that wide would hide any real change.  So between ops, every
``CALIBRATE_EVERY_S`` seconds, the clock times a fixed pure-Python kernel
that touches nothing of gdom.  Each op's latency is then scaled to the
reference speed, at which the kernel takes ``REFERENCE_KERNEL_S``:

    latency_at_reference = latency * REFERENCE_KERNEL_S / kernel_time_around_the_op

A slower program stays slower after scaling; a slower machine does not.
The raw wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_KERNEL_S = 0.00075  # fastest kernel time seen on a 2-core 2.0 GHz Xeon VM
CALIBRATE_EVERY_S = 0.25
KERNEL_REPEATS = 5


def _kernel() -> int:
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i
    return sum(table.values())


def kernel_time() -> float:
    """Fastest of a few timings of the kernel: the machine's speed right now."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class OpClock:
    """Stamps op boundaries and calibrates between ops, never inside one."""

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []  # (stamp, kernel time)

    def _calibrate(self) -> None:
        self.points.append((time.perf_counter(), kernel_time()))

    def boundary(self) -> tuple[float, float]:
        """(end of the previous op, start of the next); a calibration may fall between."""
        end = time.perf_counter()
        if not self.points or end - self.points[-1][0] >= CALIBRATE_EVERY_S:
            self._calibrate()
            return end, time.perf_counter()
        return end, end

    def finish(self) -> None:
        self._calibrate()

    def scales(self, starts: list[float]) -> list[float]:
        """Per op, the factor that turns its latency into reference time: from the
        mean kernel time of the calibrations just before and just after its start."""
        stamps = [p[0] for p in self.points]
        out = []
        for start in starts:
            i = bisect.bisect_right(stamps, start)
            around = [self.points[j][1] for j in (i - 1, i) if 0 <= j < len(self.points)]
            out.append(REFERENCE_KERNEL_S * len(around) / sum(around))
        return out

    def speed(self) -> float:
        """Median machine speed over the run, as a share of the reference speed."""
        return statistics.median(REFERENCE_KERNEL_S / k for _, k in self.points)
