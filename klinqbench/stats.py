"""The statistics and bookkeeping the benchmark reports with.

Kept apart from the workloads so the arithmetic the gate relies on
(nearest-rank percentiles, the ten-beyond rule for tails, self time, due-time
latency and failure accounting) has its own tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: A tail percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def metric(value: float, unit: str) -> dict:
    """One reported metric, in the shape the result line carries."""
    return {"value": float(value), "unit": unit}


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty sample.

    The smallest sample value with at least ``q`` percent of the sample at or
    below it; no interpolation, so the value was actually observed.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th percentile."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples put at least :data:`MIN_BEYOND` beyond percentile ``q``."""
    return beyond(n, q) >= MIN_BEYOND


def tail(values, q: float) -> tuple[float, float]:
    """``(percentile, value)``: percentile ``q`` if the sample supports it.

    Otherwise the highest whole percentile below ``q`` that still has
    :data:`MIN_BEYOND` samples beyond it (down to the median), so a short
    run never reports a tail it did not observe.
    """
    n = len(values)
    level = float(q)
    while level > 50 and not supports(n, level):
        level -= 1.0
    return level, percentile(values, level)


def union_length(intervals, lo: float | None = None, hi: float | None = None) -> float:
    """Total length covered by ``(start, end)`` intervals, clipped to ``[lo, hi]``."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - union_length(children, start, end)


def due_latencies(dues, completions) -> list[float]:
    """Open-loop latency of each request: completion time minus due time.

    Timing from the due time, not the send time, charges a stalled
    generator's delay to every request it held back.
    """
    return [done - due for due, done in zip(dues, completions)]


@dataclass
class Tally:
    """Operations attempted, succeeded and failed in one phase of a run.

    A failure is a bit mismatch against the oracle, an exception, a timeout
    or a shed request; each is counted under its kind.
    """

    phase: str
    attempted: int = 0
    succeeded: int = 0
    mismatched: int = 0
    errors: int = 0
    timeouts: int = 0
    shed: int = 0

    @property
    def failed(self) -> int:
        return self.mismatched + self.errors + self.timeouts + self.shed

    def fail(self, kind: str) -> None:
        """Count one failed operation of ``kind`` (mismatched/errors/timeouts/shed)."""
        self.attempted += 1
        setattr(self, kind, getattr(self, kind) + 1)

    def check(self, answer, expected) -> bool:
        """Count one answer, comparing it bit for bit with the oracle's."""
        if np.array_equal(answer, expected):
            self.attempted += 1
            self.succeeded += 1
            return True
        self.fail("mismatched")
        return False

    def line(self) -> str:
        return (
            f"phase {self.phase}: attempted {self.attempted} succeeded "
            f"{self.succeeded} failed {self.failed} (mismatched {self.mismatched}, "
            f"errors {self.errors}, timeouts {self.timeouts}, shed {self.shed})"
        )
