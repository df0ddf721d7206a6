"""The three workloads: ``bulk``, ``feedback`` and ``stream``.

Each drives the program only through public entry points and sets none of
its tuning knobs (no ``parallel=``, ``pipelined=``, ``max_workers`` or
batching setting), so a later change that merges tiers or deletes knobs is
measured by this benchmark instead of breaking it.

* ``bulk`` -- closed loop, one caller: ``ReadoutEngine.serve`` on float
  traces, 1024 shots x 5 qubits per call.  The offline calibration shape:
  digitize, the datapath modules and the per-qubit fan-out do the work.
* ``feedback`` -- closed loop, one caller: an in-process ``ReadoutService``
  serving 1-shot single-qubit raw requests with ``priority="feedback"``,
  cycling over the qubits.  The mid-circuit shape: per-request overhead
  dominates and the fan-out is skipped.
* ``stream`` -- open loop: one thread submits 8-shot x 5-qubit raw requests
  on a fixed schedule to a ``ReadoutService`` placed on two
  ``AsyncReadoutServer`` child processes through ``shard_hosts``.  The
  multi-client shape: wire codec, TCP, shard split/merge and micro-batching
  carry the cost.
"""

from __future__ import annotations

import concurrent.futures
import functools
import gc
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from klinqbench import deploy
from klinqbench.stats import Tally, due_latencies, percentile, tail
from repro.engine import ReadoutEngine, ReadoutRequest
from repro.service import AdmissionError, ReadoutService, spawn_async_server

#: Tail percentile reported per workload.  A 1024-shot bulk call takes tens
#: of milliseconds, so a run holds hundreds of calls, not the thousand a p99
#: with ten samples beyond it would need.
TAIL_PCT = {"bulk": 90.0, "feedback": 99.0, "stream": 99.0}
#: Set-ups per run; ``setup_s`` is their median.  Half run before the
#: measured phase and half after it, so the figure reflects the host over
#: the whole run rather than over the half second before measuring.
SETUP_REPS = 31
#: Equal spans of time each measured phase is split into (see ``Phase``):
#: three-second segments over the benchmark's 45-second runs.
SEGMENTS = 15
BULK_SHOTS = 1024
BULK_INPUTS = 2
FEEDBACK_POOL = 500
STREAM_SHOTS = 8
STREAM_POOL = 64
#: Open-loop design rate of ``stream`` (requests/s) and the ladder of higher
#: rates tried for ``max_rate_rps``.  Chosen from the measured capacity of
#: the commit that introduced the benchmark, which saturates at about 2100
#: requests/s on a 2-core host: the design rate loads the service without
#: queueing it, and the rungs are a factor of two apart with that capacity
#: between the last two, so run-to-run noise does not move the answer.
DESIGN_RATE = 250.0
LADDER = (375.0, 750.0, 1500.0, 3000.0)
#: A ladder rung passes when its p99 due-time latency stays within this
#: limit and the backlog left when the schedule ends is one the limit allows.
#: Past capacity the backlog grows without bound and the rung fails by far;
#: below it, host noise alone never comes near the limit.
LATENCY_LIMIT_MS = 250.0
#: A generator that runs later than this (p99, design rate) makes the run
#: invalid: it measured the generator, not the program.
SCHED_LAG_LIMIT_MS = 50.0
#: How long an answer may take before it counts as a timeout (for an open
#: loop: how long after the schedule ends every answer must be in).
RESULT_TIMEOUT_S = 30.0


@dataclass
class Phase:
    """What one measured phase observed, one entry per request.

    ``stamps`` are the send times (closed loop) or due times (open loop) by
    which the phase is split into :data:`SEGMENTS` equal spans of time.
    Throughput and median latency are taken from the least disturbed
    segment -- the highest throughput, the lowest median -- the way a timer
    reports the best of several repeats: on a shared host, interference
    from other tenants only ever slows a segment down, and whole-run
    figures swung by a third between runs of the same code.
    """

    tally: Tally
    start: float
    elapsed_s: float
    stamps: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    qshots: list = field(default_factory=list)
    lags_s: list = field(default_factory=list)
    backlog: int = 0
    #: Open loop only: when the last answer arrived.
    last_done: float | None = None

    def segments(self) -> list[list[int]]:
        span = self.elapsed_s / SEGMENTS
        out = [[] for _ in range(SEGMENTS)]
        for i, stamp in enumerate(self.stamps):
            out[min(int((stamp - self.start) / span), SEGMENTS - 1)].append(i)
        return [seg for seg in out if seg]

    def _per_segment(self, fn) -> list[float]:
        return [fn(seg) for seg in self.segments()]

    def p50_ms(self) -> float:
        """Median latency of the segment where it was lowest."""
        return min(
            self._per_segment(lambda seg: percentile([self.latencies_s[i] for i in seg], 50))
        ) * 1e3

    def tail_ms(self, q: float) -> tuple[float, float]:
        """``(level, ms)``: the pooled tail at ``q``, or the highest level supported."""
        level, value = tail(self.latencies_s, q)
        return level, value * 1e3

    def qshots_per_s(self) -> float:
        """Correct qubit-shots per second of wall time.

        An open loop's throughput is its schedule's until it saturates, so
        it is pooled from the first due time to the last answer.
        """
        if self.last_done is not None:
            return sum(self.qshots) / (self.last_done - self.start)
        span = self.elapsed_s / SEGMENTS
        return max(self._per_segment(lambda seg: sum(self.qshots[i] for i in seg) / span))


def _failure_kind(exc: BaseException) -> str:
    if isinstance(exc, AdmissionError):
        return "shed"
    if isinstance(exc, (concurrent.futures.TimeoutError, TimeoutError)):
        return "timeouts"
    return "errors"


def closed_loop(op, n_items, qshots, seconds, tally, tracer=None) -> Phase:
    """Run ``op(i)`` back to back for ``seconds``; one caller, one request in flight.

    ``op`` returns ``(answer, expected)``; every answer is checked against
    the oracle.  A failed request is kept with infinite latency, so it
    misses any latency limit.
    """
    phase = Phase(tally, time.perf_counter(), seconds)
    i = 0
    while time.perf_counter() - phase.start < seconds:
        scope = tracer.span("request", request=i) if tracer else nullcontext()
        t0 = time.perf_counter()
        phase.stamps.append(t0)
        good = False
        try:
            with scope:
                answer, expected = op(i % n_items)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            tally.fail(_failure_kind(exc))
        else:
            latency = time.perf_counter() - t0
            good = tally.check(answer, expected)
        phase.latencies_s.append(latency if good else float("inf"))
        phase.qshots.append(qshots if good else 0)
        i += 1
    phase.elapsed_s = time.perf_counter() - phase.start
    return phase


def timed_setup(start, first, close, reps: int):
    """Times from bundle on disk to the first correct answer, one per set-up.

    ``start()`` builds a deployment, ``first(handle)`` returns whether its
    first answer was correct.  Runs ``reps`` times, closing every handle but
    the last, which is returned with the list of times.
    """
    times = []
    handle = None
    for rep in range(reps):
        if handle is not None:
            close(handle)
        gc.collect()  # the last set-up's garbage is not this one's cost
        t0 = time.perf_counter()
        handle = start()
        try:
            correct = first(handle)
        except BaseException:
            close(handle)
            raise
        if not correct:
            close(handle)
            raise RuntimeError("first answer after set-up disagrees with the oracle")
        times.append(time.perf_counter() - t0)
    return handle, times


def _rss_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mib(pids) -> float:
    """Sum of the peak resident sets of the processes serving a workload."""
    return sum(_rss_mib(pid) for pid in pids)


def host_cpu_ticks() -> tuple[int, int]:
    """``(busy, stolen)`` CPU ticks of the whole host since boot.

    Steal is time the hypervisor gave this machine's CPUs to someone else;
    a run measured while it was high ran on a slower machine.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        user, nice, system, _idle, _iowait, irq, softirq, steal = (
            int(v) for v in handle.readline().split()[1:9]
        )
    return user + nice + system + irq + softirq + steal, steal


# --------------------------------------------------------------------------
# bulk
# --------------------------------------------------------------------------


class Bulk:
    name = "bulk"
    closed_loop = True
    qshots = BULK_SHOTS * deploy.N_QUBITS

    def __init__(self, bundle, seed: int, oracle) -> None:
        rng = np.random.default_rng([seed, 1])
        self.bundle = bundle
        self.inputs = [
            deploy.synth_traces(rng, BULK_SHOTS, range(deploy.N_QUBITS))
            for _ in range(BULK_INPUTS)
        ]
        self.expected = [oracle.states(x) for x in self.inputs]

    def start(self):
        return ReadoutEngine.load(self.bundle)

    def op(self, engine, i: int):
        result = engine.serve(ReadoutRequest(traces=self.inputs[i]))
        return result.states, self.expected[i]

    def first(self, engine) -> bool:
        # One shot on every qubit: the load, digitize and fan-out are all on
        # the path, but not a full call's compute, which ``qshots_per_s``
        # already measures and which made set-up time swing with host load.
        result = engine.serve(ReadoutRequest(traces=self.inputs[0][:1]))
        return np.array_equal(result.states, self.expected[0][:1])

    @staticmethod
    def close(engine) -> None:
        engine.close()

    @staticmethod
    def pids(engine) -> list[int]:
        return [os.getpid()]

    def measure(self, engine, seconds: float, tracer=None) -> Phase:
        self.op(engine, 1)  # warm: the fan-out pool is created lazily
        gc.collect()
        return closed_loop(
            functools.partial(self.op, engine),
            BULK_INPUTS,
            self.qshots,
            seconds,
            Tally(self.name),
            tracer,
        )


# --------------------------------------------------------------------------
# feedback
# --------------------------------------------------------------------------


class Feedback:
    name = "feedback"
    closed_loop = True
    qshots = 1

    def __init__(self, bundle, seed: int, oracle) -> None:
        rng = np.random.default_rng([seed, 2])
        per_qubit = -(-FEEDBACK_POOL // deploy.N_QUBITS)
        raw = deploy.adc(deploy.synth_traces(rng, per_qubit, range(deploy.N_QUBITS)))
        expected = oracle.states(raw)
        self.bundle = bundle
        self.requests = []
        self.expected = []
        for i in range(FEEDBACK_POOL):
            shot, qubit = divmod(i, deploy.N_QUBITS)
            self.requests.append(
                ReadoutRequest(
                    raw=raw[shot : shot + 1, qubit : qubit + 1],
                    qubits=(qubit,),
                    priority="feedback",
                )
            )
            self.expected.append(expected[shot : shot + 1, qubit : qubit + 1])

    def start(self):
        return ReadoutService(bundle_dir=self.bundle)

    def op(self, service, i: int):
        future = service.submit(self.requests[i])
        return future.result(RESULT_TIMEOUT_S).states, self.expected[i]

    def first(self, service) -> bool:
        return np.array_equal(*self.op(service, 0))

    @staticmethod
    def close(service) -> None:
        service.close()

    @staticmethod
    def pids(service) -> list[int]:
        return [os.getpid()]

    def measure(self, service, seconds: float, tracer=None) -> Phase:
        for i in range(20):  # warm
            self.op(service, i)
        gc.collect()
        return closed_loop(
            functools.partial(self.op, service),
            FEEDBACK_POOL,
            self.qshots,
            seconds,
            Tally(self.name),
            tracer,
        )


# --------------------------------------------------------------------------
# stream
# --------------------------------------------------------------------------


@dataclass
class StreamDeployment:
    servers: list
    service: ReadoutService


class Stream:
    name = "stream"
    closed_loop = False
    qshots = STREAM_SHOTS * deploy.N_QUBITS

    def __init__(self, bundle, seed: int, oracle) -> None:
        rng = np.random.default_rng([seed, 3])
        raw = deploy.adc(
            deploy.synth_traces(rng, STREAM_SHOTS * STREAM_POOL, range(deploy.N_QUBITS))
        )
        expected = oracle.states(raw)
        self.bundle = bundle
        self.requests = []
        self.expected = []
        for i in range(STREAM_POOL):
            rows = slice(i * STREAM_SHOTS, (i + 1) * STREAM_SHOTS)
            self.requests.append(ReadoutRequest(raw=raw[rows]))
            self.expected.append(expected[rows])

    def start(self) -> StreamDeployment:
        servers = []
        try:
            for _ in range(2):
                servers.append(spawn_async_server(self.bundle))
            hosts = [f"{host}:{port}" for host, port in (s.address for s in servers)]
            service = ReadoutService(bundle_dir=self.bundle, shard_hosts=hosts)
        except BaseException:
            for server in servers:
                server.close()
            raise
        return StreamDeployment(servers, service)

    def first(self, deployment) -> bool:
        result = deployment.service.submit(self.requests[0]).result(RESULT_TIMEOUT_S)
        return np.array_equal(result.states, self.expected[0])

    @staticmethod
    def close(deployment) -> None:
        deployment.service.close()
        for server in deployment.servers:
            server.close()

    @staticmethod
    def pids(deployment) -> list[int]:
        return [os.getpid()] + [s.process.pid for s in deployment.servers]

    def warm(self, deployment) -> None:
        for i in range(20):
            deployment.service.submit(self.requests[i % STREAM_POOL]).result(
                RESULT_TIMEOUT_S
            )

    def open_loop(self, service, rate: float, seconds: float, tracer=None) -> Phase:
        """Submit on a fixed schedule for ``seconds``; latency from each due time.

        The generator never waits for answers.  It sleeps until each due
        time, records how late it actually sent, and stamps completion in
        the future's callback.  ``backlog`` is how many requests were still
        unanswered when the schedule ended.
        """
        n = max(1, int(round(rate * seconds)))
        tally = Tally(f"{self.name}@{rate:g}rps")
        done = [None] * n
        futures = [None] * n
        lags = []

        def stamp(i, _future):
            done[i] = time.perf_counter()

        start = time.perf_counter() + 0.01
        dues = [start + i / rate for i in range(n)]
        for i, due in enumerate(dues):
            while True:
                now = time.perf_counter()
                if now >= due:
                    break
                time.sleep(due - now)
            lags.append(now - due)
            if tracer is not None:
                tracer.add("bench.lag", due, now, request=i)
            scope = tracer.span("send", request=i) if tracer else nullcontext()
            try:
                with scope:
                    future = service.submit(self.requests[i % STREAM_POOL])
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                tally.fail(_failure_kind(exc))
                continue
            future.add_done_callback(functools.partial(stamp, i))
            futures[i] = future
        phase = Phase(tally, start, seconds, dues, lags_s=lags)
        phase.backlog = sum(1 for f in futures if f is not None and not f.done())
        deadline = time.perf_counter() + RESULT_TIMEOUT_S
        for i, future in enumerate(futures):
            good = False
            if future is not None:
                try:
                    result = future.result(max(deadline - time.perf_counter(), 0.0))
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    tally.fail(_failure_kind(exc))
                else:
                    good = tally.check(result.states, self.expected[i % STREAM_POOL])
            if good and tracer is not None:
                tracer.add("request", dues[i], done[i], request=i)
            phase.latencies_s.append(
                due_latencies([dues[i]], [done[i]])[0] if good else float("inf")
            )
            phase.qshots.append(self.qshots if good else 0)
        phase.last_done = max((d for d in done if d is not None), default=time.perf_counter())
        return phase

    def measure(self, deployment, seconds: float, tracer=None) -> Phase:
        self.warm(deployment)
        gc.collect()
        return self.open_loop(deployment.service, DESIGN_RATE, seconds, tracer)

    def ladder(self, deployment, seconds: float) -> tuple[float, list]:
        """Highest ladder rate meeting the latency limit without a growing backlog.

        The rungs split ``seconds`` evenly and run in ascending order; the
        first rung that fails ends the climb.  Returns the rate (the design
        rate when no rung passes) and one record per rung tried.
        """
        best = DESIGN_RATE
        rungs = []
        for rate in LADDER:
            gc.collect()
            phase = self.open_loop(deployment.service, rate, seconds / len(LADDER))
            level, tail_s = tail(phase.latencies_s, TAIL_PCT[self.name])
            tail_ms = tail_s * 1e3
            allowed_backlog = rate * LATENCY_LIMIT_MS / 1e3
            passed = (
                phase.tally.failed == 0
                and tail_ms <= LATENCY_LIMIT_MS
                and phase.backlog <= allowed_backlog
            )
            rungs.append((rate, phase, level, tail_ms, passed))
            if not passed:
                break
            best = rate
        return best, rungs


WORKLOADS = {w.name: w for w in (Bulk, Feedback, Stream)}
