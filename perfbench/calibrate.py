"""Timings at a reference machine speed.

On a shared virtual machine (measured on a 2-vCPU Intel Xeon VM at
2.0 GHz) the CPU changes speed by up to a factor of two within seconds, as
neighbours load the same cores.  The program and a fixed pure-Python probe
loop slow down together: timing both alternately for two and a half
minutes, the raw times of a 2-bridge build and of a fibred search varied by
2x while their ratios to the probe stayed within 3% (medians over 20
samples).

So every interval the benchmark measures is scaled to the reference speed:
measured seconds times ``REFERENCE_S`` over the probe's own time, with the
probe run just before and just after the measured work.  A program that
gets faster or slower moves the scaled numbers exactly as it moves the raw
ones; a machine that does is mostly cancelled out.  Raw pass times are
printed next to the scaled ones.
"""

from __future__ import annotations

import time

# Median probe time on the reference machine (19 370 probes over 40 s on a
# 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11.7).  Scaled times read as
# times on that machine at its median speed.
REFERENCE_S = 0.00102
PROBE_EVERY_S = 0.01


def _probe_work() -> int:
    # dict, tuple, set and frozenset churn, like the program's own inner loops
    table: dict = {}
    seen: set = set()
    for i in range(1500):
        table[i & 1023] = (i, i + 1)
        seen.add(frozenset((i & 255, i & 15)))
    return len(seen) + len(table)


def probe() -> float:
    """Seconds the fixed probe loop takes right now.

    The faster of two runs: an interruption only ever adds time, and a
    single slowed probe would mis-scale everything timed next to it.
    """
    times = []
    for _ in range(2):
        began = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - began)
    return min(times)


class ScaledTimes:
    """Measured intervals scaled by the probe times around them.

    Intervals are added in the order they happen.  Once at least
    ``PROBE_EVERY_S`` of them has piled up, the probe runs again and the
    pending intervals are scaled by the mean of the probes before and after
    them.  Bracketing every input this closely halved the spread of one
    input's scaled times against a probe per pass; short inputs share
    their probes, so that probing stays a small part of a run.
    """

    def __init__(self):
        self.before = probe()
        self.probes = [self.before]
        self.pending: list = []
        self.scaled: list = []

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        if sum(self.pending) >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> list:
        """Scale what is pending; returns all scaled intervals so far."""
        if self.pending:
            after = probe()
            self.probes.append(after)
            scale = 2 * REFERENCE_S / (self.before + after)
            self.scaled += [s * scale for s in self.pending]
            self.pending, self.before = [], after
        return self.scaled
