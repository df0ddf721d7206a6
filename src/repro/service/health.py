"""Health-checked host pool: periodic INFO-frame probes, eject, re-admit.

A :class:`HostPool` watches the remote hosts a replicated
:class:`~repro.service.ReadoutService` places shards on.  A background
prober round-trips an INFO frame to every host on a fixed interval -- the
cheapest question a :class:`~repro.service.aio.AsyncReadoutServer` answers -- and
votes the result into per-host state: ``eject_after`` consecutive failures
mark a host unhealthy (failover stops offering it work), ``readmit_after``
consecutive successes bring it back.  The serving path feeds the same state
machine through :meth:`record_failure` / :meth:`record_success`, so a host
that dies between probes is ejected by the first request that hits it, not
a probe interval later.

Ejection is advisory, never fatal: an ejected host is *deprioritized*, and
when every replica of a shard is ejected the failover loop still dials them
as a last resort (a wrongly ejected host must not turn a degraded shard
into a dead one).  Pool state -- per-host health, consecutive counts,
ejection/readmission totals -- is exposed through :meth:`state` and folded
into :class:`~repro.service.ServiceStats`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.service.telemetry import LatencyHistogram

__all__ = ["HostHealth", "HostPool", "default_probe"]


def default_probe(address: str, timeout: float = 2.0) -> bool:
    """One INFO round trip to ``address``; True when the server answered."""
    from repro.service.aio import AsyncRemoteEngineClient

    try:
        with AsyncRemoteEngineClient(
            address, timeout=timeout, connect_timeout=timeout
        ) as client:
            client.info()
        return True
    except Exception:  # noqa: BLE001 - any failure means "not healthy"
        return False


@dataclass
class HostHealth:
    """The pool's view of one host."""

    address: str
    healthy: bool = True
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    ejections: int = 0
    readmissions: int = 0
    last_error: str = ""

    def snapshot(self) -> dict:
        return {
            "address": self.address,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "consecutive_successes": self.consecutive_successes,
            "ejections": self.ejections,
            "readmissions": self.readmissions,
            "last_error": self.last_error,
        }


@dataclass
class _PoolCounters:
    probes: int = 0
    ejections: int = 0
    readmissions: int = 0
    recorded_failures: int = 0
    recorded_successes: int = 0
    _extra: dict = field(default_factory=dict)


class HostPool:
    """Track host health across probes and request-path evidence.

    Parameters
    ----------
    hosts:
        ``"host:port"`` strings to watch (duplicates collapse to one entry).
    probe_interval_s:
        Period of the background prober; ``0`` disables the thread entirely
        (the pool then learns only from :meth:`record_failure` /
        :meth:`record_success`, which is what in-process tests use).
    eject_after:
        Consecutive failures that mark a host unhealthy.
    readmit_after:
        Consecutive successes that re-admit an ejected host.
    probe:
        ``callable(address) -> bool`` replacing :func:`default_probe`
        (fault-injection tests drop in a scripted one).
    probe_timeout_s:
        Per-probe deadline handed to :func:`default_probe`.
    """

    def __init__(
        self,
        hosts: list[str] | None = None,
        *,
        probe_interval_s: float = 1.0,
        eject_after: int = 2,
        readmit_after: int = 2,
        probe=None,
        probe_timeout_s: float = 2.0,
    ) -> None:
        if eject_after < 1:
            raise ValueError(f"eject_after must be >= 1, got {eject_after}")
        if readmit_after < 1:
            raise ValueError(f"readmit_after must be >= 1, got {readmit_after}")
        if probe_interval_s < 0:
            raise ValueError(
                f"probe_interval_s must be >= 0, got {probe_interval_s}"
            )
        self.eject_after = int(eject_after)
        self.readmit_after = int(readmit_after)
        self.probe_interval_s = float(probe_interval_s)
        self._probe = probe or (
            lambda address: default_probe(address, timeout=probe_timeout_s)
        )
        self._lock = threading.Lock()
        self._hosts: dict[str, HostHealth] = {}
        self._counters = _PoolCounters()
        #: Probe round-trip latency across all hosts -- the cheapest live
        #: estimate of wire health a deployment has, folded into metrics().
        self.probe_latency = LatencyHistogram()
        self._stop = threading.Event()
        self._prober: threading.Thread | None = None
        for host in hosts or ():
            self.add(host)

    # ------------------------------------------------------------- membership
    def add(self, address: str) -> None:
        """Start watching ``address`` (idempotent)."""
        with self._lock:
            self._hosts.setdefault(str(address), HostHealth(str(address)))

    def addresses(self) -> list[str]:
        with self._lock:
            return list(self._hosts)

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "HostPool":
        """Start the background prober (idempotent; no-op at interval 0)."""
        if self.probe_interval_s <= 0 or self._prober is not None:
            return self
        self._prober = threading.Thread(
            target=self._probe_loop, name="readout-host-prober", daemon=True
        )
        self._prober.start()
        return self

    def close(self) -> None:
        """Stop the prober.  Idempotent."""
        self._stop.set()
        if self._prober is not None:
            self._prober.join(5.0)
            self._prober = None

    def __enter__(self) -> "HostPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval_s):
            self.probe_once()

    def probe_once(self) -> None:
        """Probe every watched host once and vote the results in."""
        for address in self.addresses():
            if self._stop.is_set():
                return
            started = time.perf_counter()
            ok = bool(self._probe(address))
            self.probe_latency.record(time.perf_counter() - started)
            with self._lock:
                self._counters.probes += 1
            if ok:
                self._vote(address, success=True, source="probe")
            else:
                self._vote(address, success=False, source="probe")

    # ---------------------------------------------------------------- voting
    def record_failure(self, address: str, error: str = "") -> None:
        """Request-path evidence that ``address`` failed to answer."""
        with self._lock:
            self._counters.recorded_failures += 1
        self._vote(address, success=False, source="request", error=error)

    def record_success(self, address: str) -> None:
        """Request-path evidence that ``address`` answered."""
        with self._lock:
            self._counters.recorded_successes += 1
        self._vote(address, success=True, source="request")

    def _vote(
        self, address: str, success: bool, source: str, error: str = ""
    ) -> None:
        with self._lock:
            health = self._hosts.setdefault(str(address), HostHealth(str(address)))
            if success:
                health.consecutive_failures = 0
                health.consecutive_successes += 1
                if (
                    not health.healthy
                    and health.consecutive_successes >= self.readmit_after
                ):
                    health.healthy = True
                    health.readmissions += 1
                    self._counters.readmissions += 1
            else:
                health.consecutive_successes = 0
                health.consecutive_failures += 1
                if error:
                    health.last_error = error
                if health.healthy and health.consecutive_failures >= self.eject_after:
                    health.healthy = False
                    health.ejections += 1
                    self._counters.ejections += 1

    # ----------------------------------------------------------------- state
    def is_healthy(self, address: str) -> bool:
        """Whether ``address`` is currently admitted (unknown hosts are)."""
        with self._lock:
            health = self._hosts.get(str(address))
            return True if health is None else health.healthy

    def order_by_health(self, addresses: list[str]) -> list[str]:
        """``addresses`` with healthy hosts first, original order otherwise.

        The failover loop dials in this order: ejected hosts stay at the
        back as a last resort instead of being unreachable.
        """
        ranked = sorted(
            range(len(addresses)),
            key=lambda i: (not self.is_healthy(addresses[i]), i),
        )
        return [addresses[i] for i in ranked]

    def state(self) -> dict:
        """A snapshot: per-host health plus pool-level counters."""
        with self._lock:
            return {
                "hosts": {
                    address: health.snapshot()
                    for address, health in self._hosts.items()
                },
                "probes": self._counters.probes,
                "ejections": self._counters.ejections,
                "readmissions": self._counters.readmissions,
                "recorded_failures": self._counters.recorded_failures,
                "recorded_successes": self._counters.recorded_successes,
                "probe_latency": self.probe_latency.summary(),
            }

    @property
    def ejections(self) -> int:
        with self._lock:
            return self._counters.ejections

    @property
    def readmissions(self) -> int:
        with self._lock:
            return self._counters.readmissions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            healthy = sum(1 for h in self._hosts.values() if h.healthy)
            return f"HostPool({healthy}/{len(self._hosts)} healthy)"
