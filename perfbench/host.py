"""The host's speed, taken with a fixed reference kernel during a run.

The benchmark gets a few cores of a shared host whose speed swings by
tens of percent for minutes at a time, and that swing moves every time
the program takes as much as a real change of the program would. So a
run also times :func:`kernel`, a fixed piece of pure-Python work of the
same kind as the program's own (dict and list traffic, string slicing
and comparison, ``bisect``, ``struct``, small calls), between its
measured stretches and on the same CPU. Every end-to-end time metric
is reported at the speed of a nominal host, on which the kernel takes
:data:`NOMINAL_MS`::

    reported = measured * NOMINAL_MS / median(kernel times of the run)

The kernel lives here, outside the program, so no change of the program
moves it: a slower program still reads slower, but a slower host does
not. The factors are printed above the result line, and the raw set-up
times are in the run's report. The per-layer times of a traced run are
raw: they are compared with each other, within one run.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import struct
from time import perf_counter_ns

#: Milliseconds one :func:`kernel` pass takes on the nominal host: about
#: the median on the 2-vCPU virtual machine the benchmark was tuned on
#: (0.8 to 1.5 ms there), so that scaled figures read close to raw ones.
NOMINAL_MS = 1.0

_KEYS = [f"k{(i * 7919) % 5003:05d}" for i in range(1024)]
_PACK = struct.Struct(">IH")


def _entry(table, key, index):
    table[key] = (index, key[1:4])
    return len(key)


def kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    table: dict = {}
    total = 0
    for index, key in enumerate(_KEYS):
        total += _entry(table, key, index)
    ordered = sorted(table)
    chunks = []
    for key in _KEYS:
        index, prefix = table[key]
        position = bisect.bisect_left(ordered, key)
        if prefix < "500":
            total += position
        chunks.append(_PACK.pack(index, position))
    return total + len(b"".join(chunks))


def time_kernel_ms() -> float:
    start = perf_counter_ns()
    kernel()
    return (perf_counter_ns() - start) / 1e6


class HostSpeed:
    """Kernel timings of one run, and the scale they give."""

    def __init__(self):
        self.samples_ms: list[float] = []

    def sample(self, passes: int = 1) -> int:
        """Time ``passes`` kernel passes; returns the nanoseconds spent.

        An untimed pass first brings the kernel's data back into the
        caches, and the collector is off meanwhile, so that the samples
        pay neither for the program's cache footprint nor for collecting
        its heap: they follow the host, not the program.
        """
        start = perf_counter_ns()
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
            for _ in range(passes):
                self.samples_ms.append(time_kernel_ms())
        finally:
            if enabled:
                gc.enable()
        return perf_counter_ns() - start

    def scale(self) -> float:
        """Factor from measured times to nominal-host times."""
        return NOMINAL_MS / statistics.median(self.samples_ms)

    def stretch_scales(self, smooth: int) -> list[float]:
        """The factor of each stretch between two samples.

        Stretch ``s`` runs between samples ``s - 1`` and ``s``; its factor
        comes from the median of the ``smooth`` samples each side, so that
        it follows the host through a run but not one sample's noise.
        """
        samples = self.samples_ms
        return [
            NOMINAL_MS / statistics.median(samples[max(0, s - 1 - smooth):s + 1 + smooth])
            for s in range(len(samples))
        ]
