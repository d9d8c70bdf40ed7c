"""The speed reference that every timed end-to-end metric is scaled to.

On a shared machine the speed of one core drifts: a pure-Python loop
can take 1.5 times as long for minutes at a time, and process CPU time
drifts with it, so neither wall time nor CPU time repeats between runs.
The benchmark therefore interleaves a fixed piece of pure-Python work, a
*calibration unit*, with the times it measures, outside the timed region.
The times are taken in segments: once a segment's calibration is due, a
set share of its measured time and at least ``MIN_CALIBRATION_S``, units
run for that long, and every time in the segment is scaled to what it
would have been had a unit taken ``REFERENCE_UNIT_S``.  A job long enough
for its share to reach the minimum is a segment of its own, so a slow
stretch within a run is corrected where it happens; short jobs share one.

The unit uses only the standard library, so a change to ``crosstnn``
changes the jobs' times and not the reference.  Its mix, small
``Fraction`` arithmetic and products of many-digit integers, is the kind
of work the program does.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Seconds of one unit at the reference speed: about the median on the
# machine recorded in environment.json.
REFERENCE_UNIT_S = 0.0003
# Calibrating for less than this measures a unit too roughly.
MIN_CALIBRATION_S = 0.02
_DIGITS = [(7919 ** k) * 104729 + k for k in range(1, 13)]


def calibration_unit() -> None:
    x = Fraction(0)
    for i in range(1, 40):
        x += Fraction(i, i + 1) * Fraction(3 * i + 1, i + 2)
    product = [0] * (2 * len(_DIGITS) - 1)
    for i, u in enumerate(_DIGITS):
        for j, v in enumerate(_DIGITS):
            product[i + j] += u * v


class Speed:
    """Measured times, each scaled by the calibration that follows it."""

    def __init__(self, share: float):
        self.share = share
        self.measured, self.pending, self.scaled = [], [], []
        self.seconds = 0.0
        self.units = 0

    def follow(self, seconds: float) -> None:
        """Add a measured time; calibrate if its segment is due."""
        self.measured.append(seconds)
        self.pending.append(seconds)
        if self.share * sum(self.pending) >= MIN_CALIBRATION_S:
            self._calibrate()

    def finish(self) -> list:
        """Every time followed, in order, at the reference speed."""
        if self.pending:
            self._calibrate()
        return self.scaled

    def factor(self) -> float:
        """The mean scale over all segments, for the record."""
        return REFERENCE_UNIT_S * self.units / self.seconds

    def _calibrate(self) -> None:
        due = max(self.share * sum(self.pending), MIN_CALIBRATION_S)
        spent, units = 0.0, 0
        while spent < due:
            start = perf_counter()
            calibration_unit()
            spent += perf_counter() - start
            units += 1
        factor = REFERENCE_UNIT_S * units / spent
        self.scaled += [t * factor for t in self.pending]
        self.pending = []
        self.seconds += spent
        self.units += units
