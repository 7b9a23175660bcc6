"""Scaling of measured times to a host of fixed speed.

On a shared host the CPU's speed changes from one second to the next: a
fixed 6 ms pure-Python search was seen to take anywhere from 13 to 25 ms in
stretches of 0.5 to 3 s, for CPU time as much as for wall time.  Raw wall
times of passes that last many seconds then spread by 15-20% between runs.

A Speedometer times that fixed search (owned by the benchmark, so no change
to chromasum can move it) right before and after each measured interval
and, inside intervals where it may, every PERIOD_S seconds from a timer
signal.  An interval's scaled time is its own time, less the samples taken
inside it, times NOMINAL_S over the mean of the samples taken during and
next to it: its length on a host where the search takes NOMINAL_S.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

PERIOD_S = 0.1
NOMINAL_S = 0.0015
EDGE_SAMPLES = 5  # taken right before and right after each interval

# The search: partitions of the circulant graph C_12(1, 4) into 4
# independent classes, enumerated in restricted-growth order.
_N, _K, _OFFSETS, _PARTITIONS = 12, 4, (1, 4), 582


def search_seconds() -> float:
    adj = [0] * _N
    for v in range(_N):
        for d in _OFFSETS:
            adj[v] |= 1 << (v + d) % _N | 1 << (v - d) % _N
    masks = [0] * _K

    def count(v: int, used: int) -> int:
        if v == _N:
            return used == _K
        total = 0
        for c in range(used + 1 if used < _K else _K):
            if not adj[v] & masks[c]:
                masks[c] |= 1 << v
                total += count(v + 1, used + 1 if c == used else used)
                masks[c] ^= 1 << v
        return total

    t0 = time.perf_counter()
    found = count(0, 0)
    elapsed = time.perf_counter() - t0
    if found != _PARTITIONS:
        raise RuntimeError(f"calibration search found {found} partitions, not {_PARTITIONS}")
    return elapsed


@dataclass
class Interval:
    t0: float
    t1: float


class Speedometer:
    """Context manager that keeps the sampling timer running while open."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._timer(True)
        return self

    def __exit__(self, *exc):
        self._timer(False)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @staticmethod
    def _timer(on: bool):
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S if on else 0, PERIOD_S)

    def _on_timer(self, signum, frame):
        self._sample()

    def _sample(self):
        if self._sampling:  # the timer fired during an explicit sample
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            self.samples.append((start, search_seconds()))
        finally:
            self._sampling = False

    def measure(self, fn, sample_inside: bool):
        """Run fn() as a measured interval; returns (its result, the
        Interval).  With sample_inside False the timer is held off meanwhile:
        for intervals whose work runs in other processes, where a sample
        would compete with it for the cores, or whose spans must not hold
        samples."""
        for _ in range(EDGE_SAMPLES):
            self._sample()
        if not sample_inside:
            self._timer(False)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            if not sample_inside:
                self._timer(True)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return result, Interval(t0, t1)

    def seconds(self, interval: Interval) -> tuple[float, float]:
        """(unscaled, scaled) length of a measured interval.  Call after the
        sample that follows it."""
        inside = sum(d for s, d in self.samples if interval.t0 <= s < interval.t1)
        near = [
            d for s, d in self.samples if interval.t0 - PERIOD_S <= s <= interval.t1 + PERIOD_S
        ]
        own = interval.t1 - interval.t0 - inside
        return own, own * NOMINAL_S / statistics.fmean(near)
