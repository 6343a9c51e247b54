"""A fixed reference kernel, for putting times on a common scale.

On a shared virtual machine the speed of the same code drifts by 30% or
more for minutes at a time, and process CPU time drifts with it, so a
median of raw times moves between sets of runs more than any sensible
bound.  The benchmark therefore runs this kernel before and after every
timed section and scales the section's time by ``NOMINAL_S`` over the
mean of the two kernel times: what the section would have taken while
the kernel takes ``NOMINAL_S``.

The kernel is a single-server queue in pure Python over lists of 300,000
floats: the interpreter work and the memory traffic of qvar's own event
loop, but in the benchmark's code, so a change to qvar cannot move it.
It must never change; a change to it changes every normalised time.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

SIZE = 300_000
# About the kernel's time on a 2-vCPU Xeon VM when nothing else contends.
NOMINAL_S = 0.025


class Reference:
    def __init__(self) -> None:
        rng = random.Random(5)
        self.gaps = [rng.random() for _ in range(SIZE)]
        self.services = [0.9 * rng.random() for _ in range(SIZE)]
        self.starts = [0.0] * SIZE
        self.ends = [0.0] * SIZE
        self.run()  # fault the lists in before the first timed call

    def run(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        gaps, services, starts, ends = self.gaps, self.services, self.starts, self.ends
        t0 = perf_counter()
        waiting: deque[int] = deque()
        now = free = 0.0
        for i in range(SIZE):
            now += gaps[i]
            if free <= now:
                if waiting:
                    j = waiting.popleft()
                    starts[j] = free
                    free += services[j]
                else:
                    free = now + services[i]
                ends[i] = free
            else:
                waiting.append(i)
        return perf_counter() - t0


class Clock:
    """Times sections of work and scales each to the reference speed."""

    def __init__(self) -> None:
        self.reference = Reference()
        self.kernel_s = [self.reference.run()]

    def time(self, fn, *args):
        """``(result, seconds, normalised seconds)`` of ``fn(*args)``."""
        t0 = perf_counter()
        result = fn(*args)
        seconds = perf_counter() - t0
        after = self.reference.run()
        speed = 2 * NOMINAL_S / (self.kernel_s[-1] + after)
        self.kernel_s.append(after)
        return result, seconds, seconds * speed
