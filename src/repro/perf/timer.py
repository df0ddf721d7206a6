"""Wall-clock timing primitives for the throughput harness.

The benchmark suite cares about *throughput* (shots per second through the
emulated datapath or the trace synthesizer), so the central abstraction is
:func:`measure_throughput`: run a callable a few times over a known number of
items, keep the best wall-clock time (the least-noise estimate on a shared
machine), and report items/second together with the spread across repeats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import fmean, pstdev
from typing import Callable

__all__ = [
    "WallClockTimer",
    "ThroughputMeasurement",
    "measure_throughput",
    "measure_paired",
]


class WallClockTimer:
    """Context manager measuring elapsed wall-clock time via ``perf_counter``.

    >>> with WallClockTimer() as timer:
    ...     do_work()
    >>> timer.elapsed  # seconds
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: float | None = None

    def __enter__(self) -> "WallClockTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is None:  # pragma: no cover - defensive
            raise RuntimeError("WallClockTimer exited without being entered")
        self.elapsed = time.perf_counter() - self._start
        self._start = None


@dataclass(frozen=True)
class ThroughputMeasurement:
    """One timed workload: ``n_items`` processed per repeat.

    ``best_seconds`` (the fastest repeat) is what throughput is derived from;
    ``mean_seconds``/``std_seconds`` document the run-to-run spread.
    ``seconds`` keeps every repeat in order (for :func:`measure_paired`,
    repeat ``i`` of each task ran in the same round, so per-pair ratios can
    be read off); it is not part of the JSON report.
    """

    name: str
    n_items: int
    repeats: int
    best_seconds: float
    mean_seconds: float
    std_seconds: float
    seconds: tuple[float, ...] = ()

    @property
    def items_per_second(self) -> float:
        """Throughput of the best repeat."""
        if self.best_seconds <= 0.0:
            return float("inf")
        return self.n_items / self.best_seconds

    def as_dict(self) -> dict:
        """Plain-dict view for JSON reports."""
        return {
            "name": self.name,
            "n_items": self.n_items,
            "repeats": self.repeats,
            "best_seconds": self.best_seconds,
            "mean_seconds": self.mean_seconds,
            "std_seconds": self.std_seconds,
            "items_per_second": self.items_per_second,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ThroughputMeasurement":
        """Inverse of :meth:`as_dict` (``items_per_second`` is re-derived)."""
        return cls(
            name=str(data["name"]),
            n_items=int(data["n_items"]),
            repeats=int(data["repeats"]),
            best_seconds=float(data["best_seconds"]),
            mean_seconds=float(data["mean_seconds"]),
            std_seconds=float(data["std_seconds"]),
        )


def measure_throughput(
    fn: Callable[[], object],
    n_items: int,
    name: str,
    repeats: int = 5,
    warmup: int = 1,
) -> ThroughputMeasurement:
    """Time ``fn`` (which processes ``n_items`` items) over several repeats.

    ``warmup`` un-timed calls absorb one-off costs (allocator growth, NumPy
    internal caches) so the timed repeats measure steady-state throughput.
    """
    if n_items <= 0:
        raise ValueError(f"n_items must be positive, got {n_items}")
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    for _ in range(warmup):
        fn()
    durations = []
    for _ in range(repeats):
        with WallClockTimer() as timer:
            fn()
        durations.append(timer.elapsed)
    return ThroughputMeasurement(
        name=name,
        n_items=int(n_items),
        repeats=int(repeats),
        best_seconds=min(durations),
        mean_seconds=fmean(durations),
        std_seconds=pstdev(durations) if len(durations) > 1 else 0.0,
        seconds=tuple(durations),
    )


def measure_paired(
    tasks: dict[str, tuple[Callable[[], object], int]],
    repeats: int = 5,
    warmup: int = 1,
) -> dict[str, ThroughputMeasurement]:
    """Time several workloads round-robin so load drift hits them equally.

    Timing workloads back-to-back (all repeats of A, then all repeats of B)
    lets a slow drift in machine load -- thermal throttling, a noisy
    neighbour -- land entirely on one side of an A/B comparison and skew the
    derived speedup.  Interleaving one repeat of each task per round means
    any drift is shared, which makes throughput *ratios* far more stable.

    ``tasks`` maps measurement names to ``(fn, n_items)`` pairs; returns one
    :class:`ThroughputMeasurement` per task under the same name.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    for name, (fn, n_items) in tasks.items():
        if n_items <= 0:
            raise ValueError(f"n_items must be positive for {name!r}, got {n_items}")
        for _ in range(warmup):
            fn()
    durations: dict[str, list[float]] = {name: [] for name in tasks}
    for _ in range(repeats):
        for name, (fn, _) in tasks.items():
            with WallClockTimer() as timer:
                fn()
            durations[name].append(timer.elapsed)
    return {
        name: ThroughputMeasurement(
            name=name,
            n_items=int(n_items),
            repeats=int(repeats),
            best_seconds=min(durations[name]),
            mean_seconds=fmean(durations[name]),
            std_seconds=pstdev(durations[name]) if repeats > 1 else 0.0,
            seconds=tuple(durations[name]),
        )
        for name, (fn, n_items) in tasks.items()
    }
