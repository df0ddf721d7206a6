"""Shard transports: how a sub-request reaches a worker and comes back.

:class:`~repro.service.ReadoutService` splits a multiplexed request by qubit
columns; *where* each column group is served is a transport concern, not a
batching concern.  A :class:`ShardTransport` is the front-end's handle on one
placement -- submit an encoded sub-request, collect the decoded result, hot
swap the bundle, poll liveness, close.  Every implementation ships the same
wire frames (:mod:`repro.engine.wire`) to the same frame server,
:class:`~repro.service.aio.ServingCore`, so a local worker process answers
exactly as a cross-host server does:

* :class:`LocalProcessTransport` -- worker **processes** on this host behind
  a request/response queue pair, with bulk frames crossing the process
  boundary through shared-memory segments (one memcpy, mapped zero-copy by
  the worker) instead of pipe pickling;
* :class:`~repro.service.aio.AsyncTcpShardTransport` -- the same
  sub-requests framed onto one multiplexed TCP connection towards a remote
  :class:`~repro.service.aio.AsyncReadoutServer` (with replica failover).

The local transport is FIFO per shard: the front-end is the only
producer/consumer and the worker serves in order, so ``collect`` returns
responses in submission order; job ids are checked anyway so a protocol bug
fails loudly instead of silently mismatching arrays.  The TCP transport tags
every frame and answers ``collect`` in any order.

Both transports heal themselves under one
:class:`~repro.service.retry.RetryPolicy`: they keep each unanswered job's
encoded frame and, when the placement fails, respawn the worker or redial
a replica and resend, within ``attempts`` tries in all.

This module holds the pieces that must be importable from a worker process:
the worker main loop and the local transport driving it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_module
import random
import time
from multiprocessing import shared_memory
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.engine import wire
from repro.engine.request import ReadoutRequest, ReadoutResult
from repro.service.aio import ServingCore
from repro.service.retry import RetryPolicy

__all__ = [
    "SHM_THRESHOLD_BYTES",
    "ShardTransport",
    "WorkerDiedError",
    "LocalProcessTransport",
    "spawn_local_shards",
]


class WorkerDiedError(RuntimeError):
    """A shard worker process died before answering submitted work.

    Typed (rather than a bare ``RuntimeError``) so the transport can tell
    "the placement is gone -- respawn and resend" from a serving error the
    worker *answered* with, which must surface to the caller untouched.
    """

#: Frames at or above this size cross the process boundary through a
#: shared-memory segment (one memcpy, mapped zero-copy by the worker)
#: instead of being pickled through the request pipe (one pickle memcpy plus
#: kernel write/read copies -- measured ~2.6 ms/MB on the CI container,
#: which would eat the micro-batching gain for bulk carrier batches).
#: Small frames stay inline: a segment per tiny request would cost more
#: in syscalls than it saves in copies.
SHM_THRESHOLD_BYTES = 1 << 18


@runtime_checkable
class ShardTransport(Protocol):
    """The front-end's handle on one shard placement.

    ``submit``/``collect`` are strictly FIFO per transport (submission order
    is response order); ``is_alive`` lets a blocked collect distinguish "the
    worker is busy" from "the worker is gone"; ``close`` releases the
    placement and makes further submits fail loudly.
    """

    shard_index: int
    qubits: list[int]
    #: Self-healing events by kind (``failovers`` on TCP, ``respawns`` and
    #: ``redispatches`` on local workers); the service sums them.
    counters: dict[str, int]

    @property
    def name(self) -> str:
        """Transport kind for observability metadata (``"local"``, ``"tcp"``)."""
        ...

    def submit(
        self, job_id: int, request: ReadoutRequest, wire_meta: dict | None = None
    ) -> None:
        """Queue one sub-request (columns already restricted to this shard).

        ``wire_meta`` is the transport envelope riding in the frame header
        (trace ids, idempotent request ids); the worker echoes its trace
        keys back in the result ``meta``.
        """
        ...

    def collect(self, job_id: int) -> ReadoutResult:
        """Block for the response to ``job_id``; re-raise remote failures."""
        ...

    def swap(self, bundle_dir, expected_bundle_id: str | None = None) -> dict:
        """Hot-swap the placement to ``bundle_dir``; block for the ack.

        Called only at a drain barrier.  ``expected_bundle_id`` pins the
        artifact: a bundle with another id is refused and the placement
        keeps serving its old engine.
        """
        ...

    def is_alive(self) -> bool:
        """Whether the placement can still answer submitted work."""
        ...

    def close(self, timeout: float = 5.0) -> None:
        """Release the placement (idempotent)."""
        ...


# --------------------------------------------------------------------------
# Frame packing across the process boundary
# --------------------------------------------------------------------------


def _pack_frame(
    chunks: list,
) -> tuple[tuple, shared_memory.SharedMemory | None]:
    """Stage a chunked wire frame for the queue: inline, or via shared memory.

    ``chunks`` is :func:`repro.engine.wire.encode_request_chunks` output; the
    chunked form lets a bulk carrier cross the process boundary with exactly
    one memcpy (scatter-written straight into the segment) instead of being
    flattened into an intermediate ``bytes`` first.  Returns the queue
    descriptor and the segment the *caller* must keep alive until the worker
    has answered (and then close+unlink).
    """
    total = sum(len(chunk) for chunk in chunks)
    if total < SHM_THRESHOLD_BYTES:
        return ("inline", b"".join(chunks)), None
    segment = shared_memory.SharedMemory(create=True, size=total)
    offset = 0
    for chunk in chunks:
        segment.buf[offset : offset + len(chunk)] = chunk
        offset += len(chunk)
    return ("shm", segment.name, total), segment


def _unpack_frame(
    descriptor: tuple,
) -> tuple[memoryview | bytes, shared_memory.SharedMemory | None]:
    """Decode a queue descriptor; returns the frame bytes and the mapping to close.

    The returned buffer is a zero-copy view into the segment: the caller must
    drop every reference to it (and every array decoded from it) before
    closing.
    """
    if descriptor[0] == "inline":
        return descriptor[1], None
    _, name, nbytes = descriptor
    segment = shared_memory.SharedMemory(name=name)
    try:
        # The attaching side must not register the segment with its resource
        # tracker: the front-end owns the lifecycle (it unlinks after the
        # response), and a second registration makes the worker's tracker
        # complain about -- or double-unlink -- an already-removed segment at
        # exit (CPython gh-82300).
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass
    return segment.buf[:nbytes], segment


# --------------------------------------------------------------------------
# The worker process
# --------------------------------------------------------------------------


def _shard_worker_main(bundle_dir: str, requests, responses) -> None:
    """Worker-process loop: a queue pair in front of one :class:`ServingCore`.

    Every worker loads the **same artifact bundle** -- the deployment
    property the ROADMAP sharding item asks for: shards are interchangeable
    replicas of the full system that happen to be asked only about their
    qubit group (each sub-request carries its own explicit ``qubits``
    selection; the front-end owns the shard-to-group mapping).

    The worker is a frame server like
    :class:`~repro.service.aio.AsyncReadoutServer`, minus the socket: it
    unpacks each inline or shared-memory frame and answers it with
    :meth:`ServingCore.reply_chunks_for`, the one handler that decodes
    requests, serves them, echoes trace ids, encodes errors, and runs
    SWAP_REQUEST hot swaps pinned to the caller's bundle id.  ``None`` on
    the request queue shuts the worker down.

    The core loads every engine with ``max_workers=1``: process
    parallelism is the shard's fan-out, so each shard keeps exactly one
    busy core.
    """
    core = ServingCore(bundle_dir, max_workers=1, telemetry=False, transport="local")
    core.load()
    try:
        while True:
            item = requests.get()
            if item is None:
                break
            job_id, descriptor = item
            frame, segment = _unpack_frame(descriptor)
            reply = b"".join(core.reply_chunks_for(frame))
            # The reply is fresh bytes; only the request held views into
            # the segment, and they died with the handler.
            frame = None
            if segment is not None:
                try:
                    segment.close()
                except BufferError:  # pragma: no cover - leaked view
                    pass
            responses.put((job_id, reply))
    finally:
        core.close()


# --------------------------------------------------------------------------
# The local (same-host, worker-process) transport
# --------------------------------------------------------------------------

#: The job id of a swap frame.  Swaps run at the service's drain barrier,
#: when nothing else is in flight on the FIFO, so one reserved id suffices.
_SWAP_JOB = -1


class LocalProcessTransport:
    """One worker process on this host, driven through a queue pair.

    The submit path encodes the sub-request once and ships the frame inline
    or through a shared-memory segment (:data:`SHM_THRESHOLD_BYTES`); the
    collect path decodes the worker's result/error frame -- bit-identical
    to in-process serving because the codec round-trips every array
    exactly.

    When the worker dies, :meth:`collect` respawns it from the bundle and
    resends every unanswered job (``counters``: ``respawns``,
    ``redispatches``); ``submit`` and ``swap`` revive a worker found dead
    before they send.  Built only by :func:`spawn_local_shards`.
    """

    name = "local"

    def __init__(
        self,
        shard_index: int,
        qubits: list[int],
        bundle_dir: str | Path,
        *,
        retry: RetryPolicy = RetryPolicy(),
        seed: int | None = None,
        should_abort=None,
    ) -> None:
        self.shard_index = shard_index
        self.qubits = list(qubits)
        self.qubit_set = frozenset(self.qubits)
        #: The bundle a (re)spawned worker loads; a successful swap moves it.
        self._bundle_dir = str(bundle_dir)
        self._retry = retry
        self._rng = random.Random(seed)
        self._should_abort = should_abort or (lambda: False)
        #: Unanswered jobs in submission order: ``job_id -> chunks``, the
        #: encoded frame a respawn resends.
        self._pending: dict[int, list] = {}
        self._inflight: dict[int, shared_memory.SharedMemory] = {}
        self.counters = {"respawns": 0, "redispatches": 0}
        self._closed = False
        self._start()

    def _start(self) -> None:
        """Start a worker on the recorded bundle behind a fresh queue pair."""
        # Full Queues (not SimpleQueues): collect() needs timed gets to poll
        # worker liveness instead of blocking forever on a dead process.
        self.requests = multiprocessing.Queue()
        self.responses = multiprocessing.Queue()
        self.process = multiprocessing.Process(
            target=_shard_worker_main,
            args=(self._bundle_dir, self.requests, self.responses),
            name=f"readout-shard-{self.shard_index}",
            daemon=True,
        )
        self.process.start()

    @property
    def respawns(self) -> int:
        """How often a dead worker was replaced."""
        return self.counters["respawns"]

    def submit(
        self, job_id: int, request: ReadoutRequest, wire_meta: dict | None = None
    ) -> None:
        """Queue one sub-request (columns already restricted to this shard).

        Bulk frames travel through a shared-memory segment; the segment stays
        alive -- tracked in ``_inflight`` -- until :meth:`collect` reaps the
        response.
        """
        chunks = wire.encode_request_chunks(request, wire_meta)
        self._ready("submit")
        self._send(job_id, chunks, "submit")
        self._pending[job_id] = chunks

    def collect(self, job_id: int) -> ReadoutResult:
        """Block for the response to ``job_id`` and decode it.

        A dead worker is respawned and every unanswered job resent, up to
        the policy's ``attempts`` tries in all; past the budget (or once
        ``should_abort()`` is true) the :class:`WorkerDiedError` surfaces.
        Remote exceptions re-raise here with the same types and messages as
        local serving (:func:`repro.engine.wire.decode_reply`).
        """
        try:
            for attempt in itertools.count(2):
                try:
                    return wire.decode_reply(self._await_reply(job_id))
                except WorkerDiedError:
                    if attempt > self._retry.attempts or self._should_abort():
                        raise
                    time.sleep(self._retry.delay(attempt, self._rng))
                    if self._should_abort():
                        raise
                    self._heal()
        finally:
            self._pending.pop(job_id, None)

    def swap(self, bundle_dir, expected_bundle_id: str | None = None) -> dict:
        """Hot-swap the worker to ``bundle_dir``; block for the SWAP ack.

        The worker answers the SWAP_REQUEST frame through the same
        :class:`ServingCore` handler a TCP server uses: the candidate is
        loaded -- and, given ``expected_bundle_id``, checked against its
        manifest's id -- before anything flips, so a refused or broken
        candidate re-raises here while the worker keeps serving its old
        engine.  Synchronous by design: the service swaps only at a drain
        barrier, when nothing is in flight, so the next response *is* the
        ack.  On success a later respawn loads the new bundle.
        """
        spec: dict = {"bundle_dir": str(bundle_dir)}
        if expected_bundle_id is not None:
            spec["expected_bundle_id"] = str(expected_bundle_id)
        self._ready("swap")
        self._send(_SWAP_JOB, [wire.encode_swap_request(spec)], "swap")
        info = wire.decode_swap(self._await_reply(_SWAP_JOB))
        self._bundle_dir = str(bundle_dir)
        return info

    def _ready(self, verb: str) -> None:
        """Refuse work after close; heal a worker found dead before sending."""
        if self._closed:
            raise self._closed_error(verb)
        if not self.process.is_alive():
            self._heal()

    def _heal(self) -> None:
        """Respawn the worker and resend every unanswered job, in order."""
        backlog = list(self._pending.items())
        self.respawn()
        for job_id, chunks in backlog:
            self._pending[job_id] = chunks
            self._send(job_id, chunks, "respawn")
        self.counters["redispatches"] += len(backlog)

    def _send(self, job_id: int, chunks: list, verb: str) -> None:
        """Stage one chunked frame and queue it for the worker."""
        if self._closed:
            raise self._closed_error(verb)
        descriptor, segment = _pack_frame(chunks)
        if segment is not None:
            self._inflight[job_id] = segment
        try:
            self.requests.put((job_id, descriptor))
        except (OSError, ValueError):
            # The queue raced with close(): release the staged segment and
            # surface the same loud error a late call gets.
            self._release(job_id)
            raise self._closed_error(verb) from None

    def _closed_error(self, verb: str) -> RuntimeError:
        return RuntimeError(
            f"Shard {self.shard_index} transport is closed; {verb}() after "
            "close() is a protocol violation"
        )

    def _await_reply(self, job_id: int) -> bytes:
        """Block for the worker's reply frame to ``job_id``.

        The wait polls worker liveness: a shard that died (bundle failed to
        load, OOM kill) raises :class:`WorkerDiedError` instead of parking
        the batcher -- and every future behind it -- forever.
        """
        try:
            while True:
                try:
                    got_id, reply = self.responses.get(timeout=1.0)
                    break
                except queue_module.Empty:
                    if not self.process.is_alive():
                        raise WorkerDiedError(
                            f"Shard {self.shard_index} worker died (exit code "
                            f"{self.process.exitcode}) before answering job "
                            f"{job_id}; check that every worker can load the "
                            "bundle"
                        ) from None
        finally:
            self._release(job_id)
        if got_id != job_id:
            raise RuntimeError(
                f"Shard {self.shard_index} answered job {got_id} while job "
                f"{job_id} was expected; the shard protocol is out of sync"
            )
        return reply

    def is_alive(self) -> bool:
        """Whether the worker process can still answer submitted work."""
        return not self._closed and self.process.is_alive()

    def respawn(self) -> None:
        """Replace the worker with a fresh one loading the same bundle.

        The old process is reaped (terminated if it is somehow still
        alive), and every job in flight on the old queue pair is abandoned
        and its shared-memory segment released; the fresh worker starts
        with an empty FIFO.  The transport keeps its identity (shard index,
        qubit group).  :meth:`collect` resends the abandoned jobs itself.
        """
        if self._closed:
            raise self._closed_error("respawn")
        if self.process.is_alive():  # pragma: no cover - defensive reap
            self.process.terminate()
        self.process.join(5.0)
        for job_id in list(self._inflight):
            self._release(job_id)
        self._pending.clear()
        self._start()
        self.counters["respawns"] += 1

    def _release(self, job_id: int) -> None:
        segment = self._inflight.pop(job_id, None)
        if segment is not None:
            segment.close()
            segment.unlink()

    def close(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit and reap it (escalating to terminate)."""
        self._closed = True
        if self.process.is_alive():
            try:
                self.requests.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.terminate()
            self.process.join(timeout)
        for job_id in list(self._inflight):
            self._release(job_id)


def spawn_local_shards(
    bundle_dir: str | Path,
    shard_groups: list[list[int]],
    *,
    retry: RetryPolicy = RetryPolicy(),
    seed: int | None = None,
    should_abort=None,
) -> list[LocalProcessTransport]:
    """Start one worker process per qubit group, each loading ``bundle_dir``.

    Each worker serves on one thread (its engine has ``max_workers=1``), so
    the shards are the fan-out.  Every shard heals under ``retry``, with
    backoff jitter seeded ``seed + index`` (wall-clock random when ``seed``
    is ``None``) and giving up once ``should_abort()`` is true.  Workers
    use the platform's default :mod:`multiprocessing` start method and are
    daemonic, so an abandoned service cannot outlive its interpreter.
    """
    return [
        LocalProcessTransport(
            shard_index,
            qubits,
            bundle_dir,
            retry=retry,
            seed=None if seed is None else seed + shard_index,
            should_abort=should_abort,
        )
        for shard_index, qubits in enumerate(shard_groups)
    ]
