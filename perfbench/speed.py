"""Machine-speed calibration for a shared, drifting machine.

On a shared 2-vCPU Intel Xeon virtual machine, other tenants slowed every
process by up to 1.8x, in spells from a fraction of a second to minutes,
and the CPU time of the same work rose with the wall time, so taking the
least of an op's repeats does not remove it.  To keep figures comparable
across runs, a run also times a fixed piece of interpreter-bound work,
independent of amalgam, between its ops.  ``factor_at(mark)`` is
``REFERENCE_S`` over the median time of the few calibration chunks run
around a moment of the run (a *mark*, the number of chunks run by then), and
a time measured at that moment is multiplied by it.  On a machine where the
chunk takes ``REFERENCE_S`` the scaled figures are plain seconds; elsewhere
they are the seconds that machine would show at the reference speed.
"""

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.05
WINDOW = 4  # chunks on each side of a mark


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def _step(cell, i, table):
    cell.v = (cell.v * 31 + i) % 1000003
    key = (i & 63, cell.v & 7)
    table[key] = table.get(key, 0) + 1
    return key


def chunk(n=1700, terms=240):
    """Calls, attribute and dict access, small tuples, integer arithmetic and
    exact rationals (``fractions`` is pure Python), the mix amalgam's
    reduction loops are made of."""
    cell, table, acc = _Cell(1), {}, 0
    for i in range(n):
        acc += _step(cell, i, table)[1]
        if i % 97 == 0:
            acc += 5 ** (i % 40) % 1009
    total = Fraction(0)
    for i in range(1, terms):
        total += Fraction(i, 5 ** (i % 4) * 3 ** (i % 3))
    return acc, total


class Speed:
    """Times of the calibration chunk, sampled through a run."""

    def __init__(self):
        self.samples = []
        self._since = 0.0

    def sample(self):
        """Time one chunk; returns the mark after it."""
        t0 = time.perf_counter()
        chunk()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples)

    def after_op(self, op_s):
        """Sample once per SAMPLE_EVERY_S of op time; returns the op's mark."""
        self._since += op_s
        if self._since >= SAMPLE_EVERY_S:
            self._since = 0.0
            self.sample()
        return len(self.samples)

    def factor_at(self, mark):
        """Speed factor of the chunks run around ``mark``; call it once the
        run has ended, so the chunks after the mark are there too."""
        window = self.samples[max(0, mark - WINDOW):mark + WINDOW]
        return REFERENCE_S / statistics.median(window)
