"""Host-speed correction of the benchmark's timings.

On a shared host the same Python code runs at one speed for a while and up
to about 1.8x slower for a while, as co-tenants come and go; CPU time slows
just as much as wall time, so neither measures the program alone.  A round
therefore stops every ``PERIOD_S`` of wall time to run a fixed pure-Python
probe, which never calls the package, and divides each stretch of its own
wall time by the mean probe time at its two ends, times ``REF_PROBE_S``:
a timing reads as seconds at the host speed at which a probe between
operations takes ``REF_PROBE_S``.  In a tight loop the probe takes about
0.5 ms on an uncontended vCPU of the 2-vCPU Xeon (Sapphire Rapids, KVM)
host the benchmark was tuned on and about 0.85 ms when co-tenants slow it;
between operations, with colder caches, it takes longer, so corrected
timings read lower than wall time there.

A change to the package moves these timings as it moves wall time; a
change of host speed moves the probe as well and cancels out.
"""

from __future__ import annotations

import statistics
import time
from math import gcd

# a probe stops each stretch of this much wall time
PERIOD_S = 0.01

# seconds the probe takes at the reference speed
REF_PROBE_S = 0.0005

_GENS = (7, 11, 13)


def _probe_work() -> int:
    # the package's kind of work: a membership table filled byte by byte,
    # dict and tuple traffic, small gcds
    table = bytearray(480)
    table[0] = 1
    for v in range(1, 480):
        for g in _GENS:
            if g <= v and table[v - g]:
                table[v] = 1
                break
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1000):
        k = (i * 7919) % 1009
        key = (k % 61, gcd(k, 360))
        seen[key] = seen.get(key, 0) + table[k % 480]
        acc ^= hash(key) & 0xFFFF
    return acc + len(seen)


def probe() -> float:
    """Seconds one run of the probe takes now."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def steady_probe() -> float:
    """Median of three probes, for a one-off reading of the host speed."""
    return statistics.median(probe() for _ in range(3))


class Clock:
    """Wall time of one round, cut into stretches with a probe between them."""

    def __init__(self) -> None:
        self.stretches: list[float] = []
        self.probes = [probe()]
        self.mark = time.perf_counter()

    def tick(self) -> None:
        """Probe if a stretch has run for PERIOD_S; call it between operations."""
        if time.perf_counter() - self.mark >= PERIOD_S:
            self.cut()

    def cut(self) -> None:
        """End the current stretch with a probe."""
        self.stretches.append(time.perf_counter() - self.mark)
        self.probes.append(probe())
        self.mark = time.perf_counter()

    @property
    def raw_s(self) -> float:
        """Wall time of the round, probes left out."""
        return sum(self.stretches)

    @property
    def ref_s(self) -> float:
        """Wall time of the round at the reference speed."""
        p = self.probes
        return REF_PROBE_S * sum(
            s / ((p[i] + p[i + 1]) / 2) for i, s in enumerate(self.stretches))


def at_ref(seconds: float, before: float, after: float) -> float:
    """A timing bracketed by two probe readings, at the reference speed."""
    return seconds * REF_PROBE_S / ((before + after) / 2)
