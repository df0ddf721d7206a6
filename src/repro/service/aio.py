"""The TCP tier of the readout service: one asyncio stack.

The wire codec (:mod:`repro.engine.wire`) already makes every request and
result a self-contained binary frame; this module puts those frames on
sockets driven by asyncio protocols:

* :class:`ServingCore` -- the I/O-agnostic heart of a server: bundle
  loading, hot swaps, the idempotent reply cache, and telemetry.  Local
  shard worker processes answer their frames through it too.
* :class:`AsyncReadoutServer` -- one event loop handles a thousand-plus
  concurrent connections; engine work is dispatched to a thread-pool
  executor so the loop never blocks on compute.  Reads are zero-copy
  (:class:`FrameAssembler` hands ``recv_into`` the exact missing bytes of a
  single per-frame allocation); on the write side small frames coalesce
  into one ``write()`` while large result arrays still reach the socket as
  the memoryviews the encoder produced.  Also answers INFO, METRICS and
  SWAP frames.
* **Pipelining** -- a client tags each REQUEST with an additive ``seq`` in
  the frame envelope and keeps many requests in flight on one connection;
  replies carry the echo and may interleave, the client reorders by tag
  (:class:`PipelineDemux`).  Untagged (v1) frames from outside peers still
  get strict FIFO replies, with no codec version bump.
* :class:`AsyncRemoteEngineClient` -- the caller's side: thread-safe
  ``serve()`` round trips that survive one lost connection, and a
  ``serve_many()`` window over one socket.  Network failures surface as
  typed :class:`TransportError`\\ s, while *remote serving* failures re-raise
  with the same exception types and messages as local serving.
* :class:`AsyncTcpShardTransport` -- the
  :class:`~repro.service.transport.ShardTransport` behind
  ``ReadoutService(shard_hosts=[...])``: every sub-request tagged and in
  flight at once, with replica failover (in-order, byte-identical resend
  of every unanswered frame, answered exactly once through the reply
  cache) under the placement's retry policy.

Run a server from the command line (the bundle is the one
:meth:`ReadoutEngine.save` writes)::

    PYTHONPATH=src python -m repro.service.aio artifacts/readout-v1 \\
        --host 0.0.0.0 --port 7777
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import concurrent.futures
import itertools
import random
import socket
import threading
import time
import uuid
from pathlib import Path

from repro.engine import wire
from repro.engine.bundle import bundle_id_of, load_manifest
from repro.engine.engine import ReadoutEngine
from repro.engine.request import ReadoutRequest, ReadoutResult
from repro.service.retry import RetryPolicy
from repro.service.sharding import replica_addresses
from repro.service.telemetry import TelemetryRecorder, new_trace_id

__all__ = [
    "TransportError",
    "TransportConnectError",
    "TransportTimeoutError",
    "AllReplicasDownError",
    "ServingCore",
    "FrameAssembler",
    "PipelineDemux",
    "AsyncReadoutServer",
    "AsyncRemoteEngineClient",
    "AsyncTcpShardTransport",
    "ServerProcessHandle",
    "spawn_async_server",
    "main",
]


class TransportError(RuntimeError):
    """A network-level serving failure (connection lost, peer gone).

    Distinct from *remote serving* failures, which re-raise with their
    original exception types; a ``TransportError`` means the question may
    never have reached the engine at all.
    """


class TransportConnectError(TransportError):
    """The server could not be reached (refused, unresolved, unreachable)."""


class TransportTimeoutError(TransportError):
    """The server did not answer within the configured timeout."""


class AllReplicasDownError(TransportError):
    """Every replica of a shard placement failed within the retry budget.

    The typed signal :class:`~repro.service.ReadoutService` turns into
    graceful degradation (``degraded_ok=True``) or a bounded-deadline
    failure -- distinct from a single-connection :class:`TransportError`,
    which the failover loop absorbs.
    """


def _parse_address(address, port: int | None = None) -> tuple[str, int]:
    """Normalize ``("host", port)`` / ``"host:port"`` / host+port args."""
    if port is not None:
        return str(address), int(port)
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    if isinstance(address, str) and ":" in address:
        host, _, port_text = address.rpartition(":")
        return host, int(port_text)
    raise ValueError(
        f"Expected a (host, port) pair or 'host:port' string, got {address!r}"
    )


# --------------------------------------------------------------------------
# The serving core
# --------------------------------------------------------------------------


class ServingCore:
    """The I/O-agnostic heart of a readout server.

    Everything that happens between a decoded request frame and its reply
    bytes -- bundle loading, engine hot swaps, the idempotent reply cache,
    request/compute telemetry -- lives here; its owner only moves frames.
    Two owners exist: :class:`AsyncReadoutServer` (``transport="tcp"``) and
    every local shard worker process (``transport="local"``, see
    :mod:`repro.service.transport`); the name is stamped into result meta.

    :meth:`reply_chunks_for` returns each reply as a list of buffers
    (prefix, header, then each result array) so a scatter-writing transport
    puts the bulk arrays on the socket without flattening them into an
    intermediate ``bytes``.  Every reply echoes the request envelope's
    pipelining ``seq`` tag (when present), which is how interleaved replies
    find their in-flight future on a multiplexing client.

    Thread safety: every method may be called from any thread (the
    executor's workers).  The engine reference and deployment info flip
    together under ``_swap_lock``; counters live under ``_served_lock``;
    the reply cache under ``_cache_lock``.
    """

    def __init__(
        self,
        bundle_dir: str | Path,
        *,
        max_workers: int | None = None,
        reply_cache_size: int = 256,
        telemetry: bool = True,
        transport: str = "tcp",
    ) -> None:
        self.bundle_dir = Path(bundle_dir)
        self._max_workers = max_workers
        #: The owner's transport name, stamped into every result's meta.
        self._transport = transport
        # The engine reference, deployment info, and swap counter flip
        # together under one lock (SWAP_REQUEST handling); request handlers
        # take a local engine reference under it, so an in-flight request
        # always finishes on the engine that started serving it.
        self._swap_lock = threading.Lock()
        self._engine: ReadoutEngine | None = None
        self._info: dict = {}
        self._swaps = 0
        self._requests_served = 0
        self._deduplicated_replies = 0
        # Handlers run on many threads; the counters need a lock or
        # concurrent clients under-count them.
        self._served_lock = threading.Lock()
        self._reply_cache_size = int(reply_cache_size)
        self._reply_cache: collections.OrderedDict[str, bytes] = (
            collections.OrderedDict()
        )
        self._cache_lock = threading.Lock()
        #: ``compute`` is the engine's own serve time; ``handle`` is the
        #: whole decode-serve-encode round inside the handler.
        self._telemetry = TelemetryRecorder(
            enabled=bool(telemetry), stages=("compute", "handle")
        )
        #: Optional zero-arg callable whose dict is merged into every
        #: metrics snapshot -- the server reports its connection gauges
        #: through the same METRICS frame this way.
        self.extra_metrics = None

    # ---------------------------------------------------------------- state
    @property
    def requests_served(self) -> int:
        """REQUEST frames answered since load (result or error replies)."""
        return self._requests_served

    @property
    def deduplicated_replies(self) -> int:
        """Retried requests answered from the idempotency cache."""
        return self._deduplicated_replies

    @property
    def swaps(self) -> int:
        """Completed hot bundle swaps since load."""
        return self._swaps

    def info(self) -> dict:
        """The deployment description the INFO wire frame serves."""
        with self._swap_lock:
            return dict(self._info)

    def metrics(self) -> dict:
        """The live telemetry snapshot the METRICS wire frame serves.

        Latency histograms (engine compute, whole-request handling) with
        p50/p95/p99 summaries, the served/deduplicated counters, and the
        full bucket counts so a front-end can merge snapshots across hosts.
        """
        with self._served_lock:
            served = self._requests_served
            deduplicated = self._deduplicated_replies
        with self._swap_lock:
            swaps = self._swaps
        snapshot = self._telemetry.snapshot()
        snapshot.update(
            source="readout-server",
            requests_served=served,
            deduplicated_replies=deduplicated,
            bundle_swaps=swaps,
        )
        if self.extra_metrics is not None:
            snapshot.update(self.extra_metrics())
        return snapshot

    # ------------------------------------------------------------ lifecycle
    def load(self) -> None:
        """Load the bundle and reset the served counters.  Not idempotent."""
        manifest = load_manifest(self.bundle_dir)
        engine = ReadoutEngine.load(self.bundle_dir, max_workers=self._max_workers)
        with self._swap_lock:
            self._engine = engine
            self._info = self._describe(engine, manifest)
        with self._served_lock:
            self._requests_served = 0
            self._deduplicated_replies = 0

    def close(self) -> None:
        """Close the loaded engine (in-flight holders finish bit-identically)."""
        with self._swap_lock:
            engine, self._engine = self._engine, None
        if engine is not None:
            engine.close()

    def _describe(self, engine: ReadoutEngine, manifest: dict) -> dict:
        return {
            "n_qubits": engine.n_qubits,
            "backend": engine.backend_kind,
            "supports_raw": engine.supports_raw,
            "shard_layout": manifest.get("shard_layout"),
            "bundle_id": bundle_id_of(manifest),
        }

    # ------------------------------------------------------------ the cache
    def _cached_reply(self, request_id: str) -> bytes | None:
        with self._cache_lock:
            reply = self._reply_cache.get(request_id)
            if reply is not None:
                self._reply_cache.move_to_end(request_id)
        return reply

    def _cache_reply(self, request_id: str, reply: bytes) -> None:
        if self._reply_cache_size <= 0:
            return
        with self._cache_lock:
            self._reply_cache[request_id] = reply
            self._reply_cache.move_to_end(request_id)
            while len(self._reply_cache) > self._reply_cache_size:
                self._reply_cache.popitem(last=False)

    # ----------------------------------------------------------- dispatch
    def reply_chunks_for(self, frame) -> list:
        """Answer one frame: a list of reply buffers ready to scatter-write.

        Joined, the chunks are exactly one self-contained reply frame; kept
        apart, the result arrays cross the socket as the memoryviews
        :func:`repro.engine.wire.encode_result_chunks` produced.  The reply
        echoes the request envelope's ``seq`` tag so a pipelining peer can
        route interleaved replies; errors -- including a failed hot swap --
        travel as structured ERROR frames carrying the same echo.
        """
        handle_start = time.perf_counter()
        envelope: dict | None = None
        try:
            kind = wire.frame_kind(frame)
            request_meta = wire.frame_wire_meta(frame)
            if "seq" in request_meta:
                envelope = {"seq": request_meta["seq"]}
            if kind == wire.INFO_REQUEST:
                return [wire.encode_info(self.info(), wire_meta=envelope)]
            if kind == wire.METRICS_REQUEST:
                return [wire.encode_metrics(self.metrics(), wire_meta=envelope)]
            if kind == wire.SWAP_REQUEST:
                return [self._handle_swap(frame, envelope)]
            if kind != wire.REQUEST:
                raise wire.WireFormatError(
                    "Readout servers answer REQUEST, INFO_REQUEST, "
                    f"METRICS_REQUEST, and SWAP_REQUEST frames, got kind {kind}"
                )
            request_id = request_meta.get("request_id")
            if request_id is not None:
                cached = self._cached_reply(str(request_id))
                if cached is not None:
                    # A failover retry of work already done: replay the
                    # answer instead of serving the same request twice.  The
                    # cached frame carries the original trace and seq echo --
                    # the resent frame is byte-identical, so the ids match.
                    with self._served_lock:
                        self._requests_served += 1
                        self._deduplicated_replies += 1
                    self._telemetry.count("deduplicated_replies")
                    return [cached]
            request = wire.decode_request(frame)
            # A local reference, not self._engine at call time: a concurrent
            # swap must not change which engine answers a request that has
            # already been admitted (closed engines still serve, bit-exact).
            with self._swap_lock:
                engine = self._engine
            result = engine.serve(request)
            with self._served_lock:
                self._requests_served += 1
            # Echo the envelope's trace keys: the front-end (and the trace
            # tests) read them back to prove the id crossed the wire.
            trace_keys = {
                key: request_meta[key]
                for key in ("trace_id", "trace_ids")
                if key in request_meta
            }
            self._telemetry.record("compute", result.elapsed_s)
            chunks = wire.encode_result_chunks(
                ReadoutResult(
                    qubits=result.qubits,
                    output=result.output,
                    states=result.states,
                    logits=result.logits,
                    n_shots=result.n_shots,
                    elapsed_s=result.elapsed_s,
                    meta={**result.meta, "transport": self._transport, **trace_keys},
                ),
                wire_meta=envelope,
            )
            if request_id is not None:
                self._cache_reply(str(request_id), b"".join(chunks))
            self._telemetry.record("handle", time.perf_counter() - handle_start)
            return chunks
        except Exception as exc:  # noqa: BLE001 - relayed to the caller
            with self._served_lock:
                self._requests_served += 1
            self._telemetry.count("error_replies")
            return [wire.encode_error(exc, wire_meta=envelope)]

    def _handle_swap(self, frame, envelope: dict | None = None) -> bytes:
        """Hot-swap to the bundle a SWAP_REQUEST names; ack with a SWAP frame.

        The candidate is fully loaded and verified *before* anything flips,
        so a broken bundle (bad checksum, wrong qubit count, mismatched
        identity) answers with an error while the old engine keeps serving
        -- the server-side half of "rollback after a failed candidate load".
        In-flight requests on other handlers finish on the engine they
        started with; the reply cache is deliberately *not* cleared, so
        idempotent retries stay answered by the engine that originally
        served them.
        """
        spec = wire.decode_swap_request(frame)
        bundle_dir = Path(spec["bundle_dir"])
        manifest = load_manifest(bundle_dir)
        bundle_id = bundle_id_of(manifest)
        expected = spec.get("expected_bundle_id")
        if expected is not None and expected != bundle_id:
            raise ValueError(
                f"Bundle at {bundle_dir} has id {bundle_id[:12]}… but the swap "
                f"request pinned {str(expected)[:12]}…; refusing to swap to an "
                "artifact that is not the one the caller verified"
            )
        engine = ReadoutEngine.load(bundle_dir, max_workers=self._max_workers)
        info = self._describe(engine, manifest)
        with self._swap_lock:
            old = self._engine
            compatible = old is None or old.n_qubits == engine.n_qubits
            if compatible:
                self._engine = engine
                self._info = info
                self.bundle_dir = bundle_dir
                self._swaps += 1
                swaps = self._swaps
        if not compatible:
            engine.close()
            raise ValueError(
                f"Bundle at {bundle_dir} serves {engine.n_qubits} qubits but "
                f"this server serves {old.n_qubits}; a hot swap cannot change "
                "the deployment shape"
            )
        if old is not None:
            # Closed engines still serve (sequentially, bit-identically), so
            # requests that took a reference before the flip finish cleanly.
            old.close()
        self._telemetry.count("bundle_swaps")
        return wire.encode_swap(
            {
                "swapped": True,
                "bundle_dir": str(bundle_dir),
                "bundle_id": bundle_id,
                "n_qubits": engine.n_qubits,
                "backend": engine.backend_kind,
                "swaps": swaps,
            },
            wire_meta=envelope,
        )


# --------------------------------------------------------------------------
# Zero-copy frame reassembly
# --------------------------------------------------------------------------


class FrameAssembler:
    """Incremental zero-copy reassembly of wire frames for ``BufferedProtocol``.

    :meth:`get_buffer` hands the event loop's ``recv_into`` a memoryview of
    exactly the bytes still missing, so received data lands directly in its
    final resting place: first a :data:`~repro.engine.wire.PREFIX_SIZE`
    scratch buffer, then -- once :func:`~repro.engine.wire.frame_total_size`
    has validated magic, version, and the allocation bound -- one exact-size
    buffer per frame.  The only copy on the path is the 18-byte prefix
    moving into the frame buffer; header and payload bytes are written once
    by the kernel and never moved again, and the completed ``bytearray``
    owns its memory, so downstream zero-copy request decoding (the NumPy
    views :func:`~repro.engine.wire.decode_request` creates) stays valid
    without another copy.
    """

    def __init__(self, max_bytes: int = wire.MAX_FRAME_BYTES) -> None:
        self._max_bytes = int(max_bytes)
        self._reset()

    def _reset(self) -> None:
        self._buffer = bytearray(wire.PREFIX_SIZE)
        self._view = memoryview(self._buffer)
        self._filled = 0
        self._total: int | None = None

    def get_buffer(self, sizehint: int) -> memoryview:
        """The writable view of the bytes still missing (never empty)."""
        return self._view[self._filled :]

    def buffer_updated(self, nbytes: int) -> bytearray | None:
        """Advance past ``nbytes`` freshly received; the completed frame, if any.

        Raises :class:`~repro.engine.wire.WireFormatError` for garbage
        prefixes (bad magic, foreign version, oversized length): a stream
        that cannot be resynced, so the caller drops the connection.
        """
        self._filled += nbytes
        if self._total is None:
            if self._filled < wire.PREFIX_SIZE:
                return None
            self._total = wire.frame_total_size(self._view, self._max_bytes)
            if self._total > self._filled:
                frame = bytearray(self._total)
                frame[: self._filled] = self._buffer
                self._buffer = frame
                self._view = memoryview(frame)
                return None
        if self._filled < self._total:
            return None
        frame = self._buffer
        self._reset()
        return frame


#: Frames smaller than this are joined into a single ``transport.write()``
#: -- for small frames one extra copy is cheaper than a syscall per chunk.
#: Larger frames keep the scatter path: their payload arrays ride as the
#: encoder's memoryviews and are never joined.
_COALESCE_BYTES = 64 * 1024


def _write_frame_chunks(transport, chunks) -> None:
    """Write one frame's chunks: coalesced when small, scattered when bulk.

    Either way every chunk goes out inside one loop callback, so frames
    written concurrently by different tasks never interleave mid-frame.
    """
    if len(chunks) > 1 and sum(map(len, chunks)) < _COALESCE_BYTES:
        transport.write(b"".join(chunks))
    else:
        for chunk in chunks:
            transport.write(chunk)


class _LoopThread:
    """A private asyncio event loop on a daemon thread.

    The server, the client and the shard transport each run their sockets
    on one of these, so their blocking callers never touch the loop.
    """

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name=name, daemon=True
        )
        self._thread.start()

    def call(self, coro, timeout: float):
        """Run ``coro`` on the loop and block for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def soon(self, callback, *args) -> None:
        """Schedule ``callback(*args)`` on the loop from any thread."""
        self.loop.call_soon_threadsafe(callback, *args)

    def dial(self, host: str, port: int, connect_timeout: float) -> "_AsyncConnection":
        """Open one multiplexed connection on this loop."""
        conn = _AsyncConnection(host, port, connect_timeout)
        return self.call(conn.open(), connect_timeout + 10.0)

    def close(self, conn: "_AsyncConnection | None" = None) -> None:
        """Stop the loop -- after closing ``conn`` and releasing its socket."""
        if conn is not None:
            try:
                self.call(conn.aclose(), 5.0)
            except Exception:  # noqa: BLE001 - tearing down regardless
                pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10.0)
        if not self._thread.is_alive():
            self.loop.close()


# --------------------------------------------------------------------------
# The pipelining demultiplexer (client half of the ``seq`` envelope tag)
# --------------------------------------------------------------------------


class PipelineDemux:
    """Thread-safe ``seq -> future`` registry: where interleaved replies land.

    :meth:`register` hands out a :class:`concurrent.futures.Future` keyed by
    a request's pipeline tag and rejects duplicate in-flight tags;
    :meth:`resolve` routes a reply frame to its future by the envelope echo
    -- out-of-order arrival is the point; :meth:`discard` abandons exactly
    one tag (caller timeout or cancellation) without touching its siblings,
    and a late reply for a discarded tag is counted and dropped;
    :meth:`fail_all` fails every in-flight future with one typed error when
    the connection underneath dies.

    Futures resolve to the raw reply *frame*, not a decoded result: decoding
    (and the result-array copies it implies) happens on the waiter's thread,
    never on the I/O loop.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: dict[object, concurrent.futures.Future] = {}
        self._late_replies = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def late_replies(self) -> int:
        """Replies whose tag was already discarded (or never registered)."""
        with self._lock:
            return self._late_replies

    def register(self, seq) -> concurrent.futures.Future:
        """Claim ``seq`` and return the future its reply will resolve."""
        if seq is None:
            raise ValueError("A pipelining request needs a non-None seq tag")
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._lock:
            if seq in self._pending:
                raise ValueError(
                    f"Pipeline tag seq={seq!r} is already in flight on this "
                    "connection; tags must be unique until their reply lands"
                )
            self._pending[seq] = future
        return future

    def resolve(self, frame) -> bool:
        """Route one reply frame to its in-flight future by the ``seq`` echo.

        Returns whether a waiter took the frame.  A reply with an unreadable
        header poisons the whole stream (every in-flight future fails) --
        after framing-level validation that only happens when the peer is
        not speaking this codec at all.
        """
        try:
            envelope = wire.frame_wire_meta(frame)
        except wire.WireFormatError as exc:
            self.fail_all(exc)
            return False
        seq = envelope.get("seq")
        with self._lock:
            future = self._pending.pop(seq, None)
            if future is None:
                self._late_replies += 1
        if future is None or not future.set_running_or_notify_cancel():
            return False
        future.set_result(frame)
        return True

    def fail(self, seq, exc: BaseException) -> bool:
        """Fail exactly one in-flight tag (e.g. its send never went out)."""
        with self._lock:
            future = self._pending.pop(seq, None)
        if future is None or not future.set_running_or_notify_cancel():
            return False
        future.set_exception(exc)
        return True

    def discard(self, seq) -> bool:
        """Abandon one in-flight tag; sibling requests are untouched."""
        with self._lock:
            future = self._pending.pop(seq, None)
        if future is None:
            return False
        future.cancel()
        return True

    def fail_all(self, exc: BaseException) -> int:
        """Fail every in-flight future (the connection died underneath them)."""
        with self._lock:
            pending, self._pending = self._pending, {}
        failed = 0
        for future in pending.values():
            if future.set_running_or_notify_cancel():
                future.set_exception(exc)
                failed += 1
        return failed


# --------------------------------------------------------------------------
# Server
# --------------------------------------------------------------------------


class _AsyncServerProtocol(asyncio.BufferedProtocol):
    """One client connection on the server's event loop.

    Tagged requests (a ``seq`` in the envelope) are served concurrently on
    the executor and their replies written in completion order -- the peer
    reorders by tag.  Untagged (v1) requests from outside peers get their
    replies chained strictly FIFO.
    """

    def __init__(self, server: "AsyncReadoutServer") -> None:
        self._server = server
        self._assembler = FrameAssembler()
        self._transport = None
        self._inflight: set = set()
        self._tasks: set[asyncio.Task] = set()
        self._fifo_tail: asyncio.Future | None = None

    # ------------------------------------------------------ protocol hooks
    def connection_made(self, transport) -> None:
        self._transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                # asyncio already sets TCP_NODELAY on TCP transports; add
                # keepalive so connections whose peer vanished without a FIN
                # are reaped instead of leaking forever.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            except OSError:  # pragma: no cover - peer already gone
                pass
        self._server._register_connection(self)

    def connection_lost(self, exc) -> None:
        for task in list(self._tasks):
            task.cancel()
        self._server._unregister_connection(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._assembler.get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        try:
            frame = self._assembler.buffer_updated(nbytes)
        except wire.WireFormatError:
            # Unframeable garbage we cannot resync from: drop the connection
            # (the client sees a TransportError and may reconnect).
            self._transport.close()
            return
        if frame is not None:
            self._dispatch(frame)

    # ------------------------------------------------------------ dispatch
    def _dispatch(self, frame) -> None:
        try:
            envelope = wire.frame_wire_meta(frame)
        except wire.WireFormatError:
            self._transport.close()
            return
        seq = envelope.get("seq")
        if seq is not None:
            if seq in self._inflight:
                # A duplicate in-flight tag is a protocol violation answered
                # loudly on exactly that tag; sibling requests are untouched.
                self._write_chunks(
                    [
                        wire.encode_error(
                            wire.WireFormatError(
                                f"Pipeline tag seq={seq!r} is already in "
                                "flight on this connection"
                            ),
                            wire_meta={"seq": seq},
                        )
                    ]
                )
                return
            self._inflight.add(seq)
        task = self._server._loop.create_task(self._serve(frame, seq))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve(self, frame, seq) -> None:
        server = self._server
        prev = done = None
        if seq is None:
            # Untagged peers expect strict FIFO replies: chain the writes so
            # executor concurrency never reorders their stream.
            prev, done = self._fifo_tail, server._loop.create_future()
            self._fifo_tail = done
        try:
            try:
                chunks = await server._loop.run_in_executor(
                    server._executor, server._core.reply_chunks_for, frame
                )
            except RuntimeError as exc:  # executor shut down mid-drain
                chunks = [
                    wire.encode_error(
                        exc, wire_meta=None if seq is None else {"seq": seq}
                    )
                ]
            if prev is not None:
                await prev
            if not self._transport.is_closing():
                self._write_chunks(chunks)
        finally:
            if seq is not None:
                self._inflight.discard(seq)
            if done is not None and not done.done():
                done.set_result(None)

    def _write_chunks(self, chunks) -> None:
        _write_frame_chunks(self._transport, chunks)

    # ------------------------------------------------------------- draining
    def pending_tasks(self) -> list:
        return [task for task in self._tasks if not task.done()]

    def close_transport(self) -> None:
        if self._transport is not None:
            self._transport.close()


class AsyncReadoutServer:
    """Serve an artifact bundle's engine to the network on one event loop.

    One event loop multiplexes every connection, engine work runs on a
    thread-pool executor so the loop never blocks, and tagged requests
    on one connection are served concurrently with their replies routed by
    the ``seq`` envelope echo.  Bundle loading, hot swaps, the idempotent
    reply cache, and telemetry live in the shared :class:`ServingCore`.

    Parameters
    ----------
    bundle_dir:
        Artifact bundle directory (:meth:`ReadoutEngine.save`); loaded once
        at :meth:`start`.
    host / port:
        Bind address.  ``port=0`` picks a free port (read it back from
        :attr:`address` -- the loopback tests and benchmarks do).
    max_workers:
        Worker-thread cap for the loaded engine's per-qubit fan-out (the
        engine's one fan-out setting; ``1`` serves sequentially).
    backlog:
        Listen backlog; high by default because a thousand clients dialing
        at once is this server's normal weather.
    drain_timeout:
        How long :meth:`close` waits for in-flight requests to finish
        before force-closing the connections.
    reply_cache_size:
        How many recent replies to keep, keyed by the idempotent
        ``request_id`` clients stamp into wire meta.  A retried request
        whose first attempt *was* answered (the reply died with the
        connection) replays the cached frame instead of being served twice
        -- the server half of idempotent failover.  ``0`` disables caching.
    telemetry:
        Record per-request engine-compute and request-handling latency
        histograms, served live through the METRICS wire frame
        (:meth:`metrics`, ``python -m repro.service.telemetry HOST:PORT``).
    executor_workers:
        Cap of the serve executor (engine work off the event loop).
    """

    def __init__(
        self,
        bundle_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_workers: int | None = None,
        backlog: int = 512,
        drain_timeout: float = 10.0,
        reply_cache_size: int = 256,
        telemetry: bool = True,
        executor_workers: int = 4,
    ) -> None:
        self._core = ServingCore(
            bundle_dir,
            max_workers=max_workers,
            reply_cache_size=reply_cache_size,
            telemetry=telemetry,
        )
        self._core.extra_metrics = self._connection_metrics
        self._requested = (host, int(port))
        self._backlog = int(backlog)
        self._drain_timeout = float(drain_timeout)
        self._executor_workers = int(executor_workers)
        self._io: _LoopThread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._aio_server = None
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        # Touched only on the loop thread; read cross-thread only as gauges.
        self._connections: set[_AsyncServerProtocol] = set()
        self._accepted = 0
        self._address: tuple[str, int] | None = None
        self._started = False
        self._closing = False
        self._closed = threading.Event()

    # ---------------------------------------------------------------- state
    @property
    def bundle_dir(self) -> Path:
        """The served bundle's directory (tracks hot swaps)."""
        return self._core.bundle_dir

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (only meaningful after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("AsyncReadoutServer is not started")
        return self._address

    @property
    def requests_served(self) -> int:
        """REQUEST frames answered since start (result or error replies)."""
        return self._core.requests_served

    @property
    def deduplicated_replies(self) -> int:
        """Retried requests answered from the idempotency cache."""
        return self._core.deduplicated_replies

    @property
    def connections_open(self) -> int:
        """Currently connected clients (a racy gauge, exact on the loop)."""
        return len(self._connections)

    def metrics(self) -> dict:
        """The live telemetry snapshot the METRICS wire frame serves."""
        return self._core.metrics()

    def _connection_metrics(self) -> dict:
        return {
            "connections_open": len(self._connections),
            "connections_accepted": self._accepted,
        }

    def _register_connection(self, conn: _AsyncServerProtocol) -> None:
        self._connections.add(conn)
        self._accepted += 1

    def _unregister_connection(self, conn: _AsyncServerProtocol) -> None:
        self._connections.discard(conn)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "AsyncReadoutServer":
        """Load the bundle, spin up the loop thread, bind.  Idempotent."""
        if self._started:
            return self
        if self._closing:
            raise RuntimeError("AsyncReadoutServer is closed")
        self._core.load()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self._executor_workers,
            thread_name_prefix="aio-readout-serve",
        )
        self._io = _LoopThread("aio-readout-loop")
        self._loop = self._io.loop
        try:
            self._address = self._io.call(self._bind(), 30.0)
        except Exception:
            self._io.close()
            self._executor.shutdown(wait=False)
            self._core.close()
            raise
        self._started = True
        return self

    async def _bind(self) -> tuple[str, int]:
        host, port = self._requested
        self._aio_server = await self._loop.create_server(
            lambda: _AsyncServerProtocol(self), host, port, backlog=self._backlog
        )
        return self._aio_server.sockets[0].getsockname()[:2]

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`close` is called."""
        self.start()
        try:
            self._closed.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive use
            self.close()

    def close(self) -> None:
        """Graceful drain: stop accepting, let in-flight requests finish, reap.

        Idempotent; a concurrent caller blocks until the first close
        finishes.
        """
        if self._closing:
            self._closed.wait()
            return
        self._closing = True
        if self._started:
            try:
                self._io.call(self._shutdown(), self._drain_timeout + 10.0)
            except (concurrent.futures.TimeoutError, RuntimeError):
                pass  # force the teardown below
            self._io.close()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._core.close()
        self._closed.set()

    async def _shutdown(self) -> None:
        if self._aio_server is not None:
            self._aio_server.close()
            await self._aio_server.wait_closed()
        deadline = self._loop.time() + self._drain_timeout
        tasks = [
            task for conn in self._connections for task in conn.pending_tasks()
        ]
        if tasks:
            await asyncio.wait(
                tasks, timeout=max(0.0, deadline - self._loop.time())
            )
        for conn in list(self._connections):
            conn.close_transport()

    def __enter__(self) -> "AsyncReadoutServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------------
# Client
# --------------------------------------------------------------------------


class _AsyncClientProtocol(asyncio.BufferedProtocol):
    """The loop-side receive path of one multiplexed client connection."""

    def __init__(self, conn: "_AsyncConnection") -> None:
        self._conn = conn

    def connection_made(self, transport) -> None:
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            except OSError:  # pragma: no cover - peer already gone
                pass

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._conn.assembler.get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        try:
            frame = self._conn.assembler.buffer_updated(nbytes)
        except wire.WireFormatError as exc:
            self._conn.protocol_error(exc)
            return
        if frame is not None:
            self._conn.demux.resolve(frame)

    def connection_lost(self, exc) -> None:
        self._conn.connection_lost(exc)


class _AsyncConnection:
    """One multiplexed connection: demux + transport, shared by the sync
    client (:class:`AsyncRemoteEngineClient`), the shard transport, and the
    load generator's coroutine workers."""

    def __init__(self, host: str, port: int, connect_timeout: float) -> None:
        self.host, self.port = host, int(port)
        self.connect_timeout = float(connect_timeout)
        self.demux = PipelineDemux()
        self.assembler = FrameAssembler()
        self._transport = None
        self._lost = False
        self._released: asyncio.Future | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def connected(self) -> bool:
        return (
            self._transport is not None
            and not self._transport.is_closing()
            and not self._lost
        )

    async def open(self) -> "_AsyncConnection":
        loop = asyncio.get_running_loop()
        self._released = loop.create_future()
        try:
            self._transport, _ = await asyncio.wait_for(
                loop.create_connection(
                    lambda: _AsyncClientProtocol(self), self.host, self.port
                ),
                self.connect_timeout,
            )
        except asyncio.TimeoutError as exc:
            raise TransportConnectError(
                f"Cannot connect to readout server at {self.address}: connect "
                f"timed out after {self.connect_timeout:g}s"
            ) from exc
        except (ConnectionError, socket.gaierror, OSError) as exc:
            raise TransportConnectError(
                f"Cannot connect to readout server at {self.address}: {exc}"
            ) from exc
        return self

    # Called on the loop thread only.
    def send_chunks(self, seq, chunks) -> None:
        self.send_batch([(seq, chunks)])

    # Called on the loop thread only.
    def send_batch(self, entries) -> None:
        """Write many ``(seq, chunks)`` frames in one loop callback.

        One cross-thread wake-up submits a whole pipelining burst; each
        frame still fails (or flies) under its own tag.
        """
        transport = self._transport
        if transport is None or transport.is_closing():
            exc = TransportError(
                f"No open connection to readout server at {self.address}"
            )
            for seq, _chunks in entries:
                self.demux.fail(seq, exc)
            return
        for _seq, chunks in entries:
            _write_frame_chunks(transport, chunks)

    def connection_lost(self, exc) -> None:
        self._lost = True
        self._transport = None
        if not self._released.done():
            self._released.set_result(None)
        detail = f": {exc}" if exc else " (closed by peer)"
        self.demux.fail_all(
            TransportError(
                f"Connection to readout server at {self.address} lost "
                f"mid-flight{detail}"
            )
        )

    def protocol_error(self, exc: BaseException) -> None:
        self.demux.fail_all(exc)
        if self._transport is not None:
            self._transport.close()

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()

    async def aclose(self) -> None:
        """Close, then wait until the socket is actually released."""
        self.close()
        if self._released is not None:
            await self._released

    async def request(self, chunks, seq, timeout: float):
        """Coroutine round trip: register, send, await the tagged reply frame."""
        future = self.demux.register(seq)
        self.send_chunks(seq, chunks)
        try:
            return await asyncio.wait_for(asyncio.wrap_future(future), timeout)
        except asyncio.TimeoutError:
            self.demux.discard(seq)
            raise TransportTimeoutError(
                f"Readout server at {self.address} did not answer within "
                f"{timeout:g}s"
            ) from None


def _await_reply(conn: _AsyncConnection, seq, future, timeout: float):
    """Block for ``future``'s reply frame; a timeout abandons the tag."""
    try:
        return future.result(timeout)
    except concurrent.futures.TimeoutError:
        conn.demux.discard(seq)
        raise TransportTimeoutError(
            f"Readout server at {conn.address} did not answer within "
            f"{timeout:g}s"
        ) from None
    except concurrent.futures.CancelledError:
        raise TransportError(
            f"Request to readout server at {conn.address} was cancelled "
            "in flight"
        ) from None


class AsyncRemoteEngineClient:
    """Speak :meth:`ReadoutEngine.serve` to a remote readout server.

    The client-side twin of ``engine.serve()``: every request carries a
    unique ``seq`` tag (plus an idempotent ``request_id`` and a trace id),
    so replies may interleave and are reordered by :class:`PipelineDemux`.
    ``serve()`` is thread-safe -- concurrent callers share the connection
    instead of queueing behind a lock -- and :meth:`serve_many` keeps a
    bounded window of requests in flight over one socket.

    Remote *serving* errors (shape, selection, capability) re-raise with
    exactly the types and messages local serving produces; network
    failures raise typed :class:`TransportError`\\ s.  When the connection
    is lost under a ``serve()``/``info()``/``metrics()``/``swap()`` call
    (a server restart left the client holding a dead socket, or a reply
    was cut mid-frame) the client redials once and resends the
    byte-identical frame -- its ``request_id`` lets the server answer a
    retry of work already done from its reply cache instead of computing
    twice.  Refused connections and timeouts are **not** retried (the
    server is busy or gone, not stale); :attr:`reconnects` counts redials.

    Parameters
    ----------
    host / port:
        Server address; also accepts ``AsyncRemoteEngineClient("host:port")``.
    timeout:
        Per-request answer deadline (seconds).
    connect_timeout:
        Deadline for establishing the TCP connection.
    max_inflight:
        Default :meth:`serve_many` window.
    """

    def __init__(
        self,
        host,
        port: int | None = None,
        *,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        max_inflight: int = 64,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self._host, self._port = _parse_address(host, port)
        self._timeout = float(timeout)
        self._connect_timeout = float(connect_timeout)
        self._max_inflight = int(max_inflight)
        self._seq = itertools.count(1)
        self._io: _LoopThread | None = None
        self._conn: _AsyncConnection | None = None
        # Guards lazy loop/connection creation across caller threads.
        self._lifecycle_lock = threading.Lock()
        self.reconnects = 0
        self._closed = False

    @property
    def address(self) -> str:
        """The server's ``host:port``."""
        return f"{self._host}:{self._port}"

    @property
    def connected(self) -> bool:
        conn = self._conn
        return conn is not None and conn.connected

    # ------------------------------------------------------------- plumbing
    def _ensure(self) -> _AsyncConnection:
        """The live connection, dialing (and counting a redial) if needed."""
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("AsyncRemoteEngineClient is closed")
            if self._io is None:
                self._io = _LoopThread("aio-readout-client")
            conn = self._conn
            if conn is not None and conn.connected:
                return conn
            if conn is not None:
                self.reconnects += 1
            conn = self._io.dial(self._host, self._port, self._connect_timeout)
            self._conn = conn
            return conn

    def _send(self, conn: _AsyncConnection, seq, chunks) -> None:
        self._io.soon(conn.send_chunks, seq, chunks)

    def _roundtrip(self, seq, chunks) -> bytes:
        """One round trip of the frame tagged ``seq``, resent once if lost.

        The resend after a lost connection (or a reply cut mid-frame) puts
        the very same chunks on a fresh connection: same ``seq``, same
        ``request_id``, same trace id -- so a reply replayed from the
        server's cache still finds this tag.  Timeouts and refused redials
        propagate untouched.
        """
        for attempt in (1, 2):
            conn = self._ensure()
            future = conn.demux.register(seq)
            self._send(conn, seq, chunks)
            try:
                return _await_reply(conn, seq, future, self._timeout)
            except TransportTimeoutError:
                raise
            except (TransportError, wire.WireFormatError):
                if attempt == 2 or self._closed:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_chunks(self, request: ReadoutRequest, seq, trace_id):
        return wire.encode_request_chunks(
            request,
            wire_meta={
                "seq": seq,
                "request_id": uuid.uuid4().hex,
                "trace_id": trace_id or new_trace_id(),
            },
        )

    # ---------------------------------------------------------------- calls
    def serve(
        self, request: ReadoutRequest, *, trace_id: str | None = None
    ) -> ReadoutResult:
        """Serve one request remotely; bit-identical to the server's engine.

        Thread-safe: concurrent callers pipeline over the one connection
        (their replies come back tagged, so interleaving is harmless).
        ``trace_id`` (minted here when not supplied) rides in wire meta and
        comes back in ``ReadoutResult.meta["trace_id"]`` -- including when
        a resend was answered from the server's reply cache.
        """
        if not isinstance(request, ReadoutRequest):
            raise TypeError(
                f"serve() takes a ReadoutRequest, got {type(request).__name__}"
            )
        seq = next(self._seq)
        return wire.decode_reply(
            self._roundtrip(seq, self._request_chunks(request, seq, trace_id))
        )

    def serve_many(
        self,
        requests,
        *,
        max_inflight: int | None = None,
        trace_id: str | None = None,
    ) -> list[ReadoutResult]:
        """Pipeline many requests over the one connection; results in order.

        Up to ``max_inflight`` requests ride the socket concurrently -- the
        single-connection throughput path: while the server computes one
        answer, the next requests are already crossing the wire.
        Submissions go out in window-sized bursts (the window is topped back
        up once it half-drains), so a burst costs one cross-thread loop
        wake-up instead of one per request.  A failure (remote serving
        error, timeout, lost connection) abandons the remaining in-flight
        tags and re-raises -- there is no resend on this path; completed
        siblings are lost with it, so callers treat the batch as
        all-or-nothing.
        """
        requests = list(requests)
        for request in requests:
            if not isinstance(request, ReadoutRequest):
                raise TypeError(
                    "serve_many() takes ReadoutRequests, got "
                    f"{type(request).__name__}"
                )
        window = self._max_inflight if max_inflight is None else int(max_inflight)
        if window < 1:
            raise ValueError(f"max_inflight must be >= 1, got {window}")
        results: list[ReadoutResult | None] = [None] * len(requests)
        inflight: collections.deque = collections.deque()
        pending = collections.deque(enumerate(requests))
        low_water = window // 2

        def refill() -> None:
            conn = self._ensure()
            entries = []
            while pending and len(inflight) < window:
                index, request = pending.popleft()
                seq = next(self._seq)
                future = conn.demux.register(seq)
                entries.append(
                    (seq, self._request_chunks(request, seq, trace_id))
                )
                inflight.append((index, conn, seq, future))
            if entries:
                self._io.soon(conn.send_batch, entries)

        def finish_one() -> None:
            index, conn, seq, future = inflight.popleft()
            results[index] = wire.decode_reply(
                _await_reply(conn, seq, future, self._timeout)
            )

        try:
            refill()
            while inflight:
                finish_one()
                if pending and len(inflight) <= low_water:
                    refill()
        except BaseException:
            for _index, conn, seq, _future in inflight:
                conn.demux.discard(seq)
            raise
        return results

    def info(self) -> dict:
        """The server's deployment description (qubits, backend, shard hints)."""
        seq = next(self._seq)
        return wire.decode_info(
            self._roundtrip(seq, [wire.encode_info_request(wire_meta={"seq": seq})])
        )

    def metrics(self) -> dict:
        """The server's live telemetry snapshot (the METRICS wire frame)."""
        seq = next(self._seq)
        return wire.decode_metrics(
            self._roundtrip(
                seq, [wire.encode_metrics_request(wire_meta={"seq": seq})]
            )
        )

    def swap(self, bundle_dir, *, expected_bundle_id: str | None = None) -> dict:
        """Ask the server to hot-swap to a new bundle (SWAP wire frames).

        ``bundle_dir`` is a path *on the server's filesystem*; pass
        ``expected_bundle_id`` (from :func:`repro.engine.bundle.bundle_id_of`
        or the registry index) to pin the swap to the exact artifact you
        verified.  A failed candidate load raises here with the server's
        original exception while the server keeps serving its old engine.
        """
        spec: dict = {"bundle_dir": str(bundle_dir)}
        if expected_bundle_id is not None:
            spec["expected_bundle_id"] = str(expected_bundle_id)
        seq = next(self._seq)
        return wire.decode_swap(
            self._roundtrip(
                seq, [wire.encode_swap_request(spec, wire_meta={"seq": seq})]
            )
        )

    def close(self) -> None:
        """Drop the connection and stop the loop thread.  Idempotent."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            conn, self._conn = self._conn, None
            io = self._io
        if io is not None:
            io.close(conn)
        if conn is not None:
            conn.demux.fail_all(
                TransportError(
                    f"AsyncRemoteEngineClient to {self.address} was closed"
                )
            )

    def __enter__(self) -> "AsyncRemoteEngineClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AsyncRemoteEngineClient({self.address!r})"


# --------------------------------------------------------------------------
# The shard transport (pipelining, with replica failover)
# --------------------------------------------------------------------------


def _answered(future) -> bool:
    """Whether ``future`` already holds a reply frame (not an error)."""
    return (
        future is not None
        and future.done()
        and not future.cancelled()
        and future.exception() is None
    )


class AsyncTcpShardTransport:
    """A :class:`~repro.service.transport.ShardTransport` over a shard's
    replica servers.

    Every sub-request is tagged and stays in flight on one multiplexed
    connection to the **active replica**, so a micro-batch split across
    shards (or queued behind another) pipelines on the wire instead of
    serializing round trips; ``collect`` may be called in any order and
    answers land by tag.

    The placement heals itself under its
    :class:`~repro.service.retry.RetryPolicy` (default ``RetryPolicy()``).
    When the active replica fails -- connection lost, mid-frame
    truncation, or a reply slower than the per-try deadline -- the
    transport **fails over**: it redials the other replicas (those after
    the active one first, healthy ones first per the optional
    :class:`~repro.service.health.HostPool`) and resends every unanswered
    frame byte-identical, with the same ``seq``, ``request_id`` and trace
    ids.  A server that already answered a resent frame replays its cached
    reply -- which carries the original ``seq`` echo, so it finds the
    original tag -- instead of serving it twice: failover is exactly-once
    from the caller's point of view.  The policy bounds the whole loop
    (``attempts`` tries per job in all, exponential backoff with a jitter
    cap, optional per-try deadline); when the budget is spent the transport
    raises :class:`AllReplicasDownError`, the typed signal the service
    turns into graceful degradation.  A single address is valid -- then
    failover degenerates to reconnect-and-resend against a restarted
    placement.  ``RetryPolicy(attempts=1)`` is fail-fast: one try, and a
    lost connection surfaces as :class:`AllReplicasDownError`.
    """

    name = "tcp"

    def __init__(
        self,
        shard_index: int,
        qubits: list[int],
        addresses,
        *,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        retry: RetryPolicy = RetryPolicy(),
        pool=None,
        seed: int | None = None,
        should_abort=None,
    ) -> None:
        self.shard_index = shard_index
        self.qubits = list(qubits)
        self.qubit_set = frozenset(self.qubits)
        self._retry = retry
        self._timeout = float(
            timeout if retry.try_timeout_s is None else retry.try_timeout_s
        )
        self._connect_timeout = float(connect_timeout)
        self._pool = pool
        self._rng = random.Random(seed)
        self._should_abort = should_abort or (lambda: False)
        self.addresses: list[str] = []
        for address in replica_addresses(addresses):
            key = "%s:%d" % _parse_address(address)
            if key not in self.addresses:
                self.addresses.append(key)
                if pool is not None:
                    pool.add(key)
        self._seq = itertools.count(1)
        #: Unanswered jobs in submission order: ``job_id -> (seq, chunks,
        #: conn, future)`` -- the connection the frame last went out on and
        #: its reply future there (both ``None`` until it is sent).
        self._pending: dict[int, tuple] = {}
        self._active: str | None = None
        self._conn: _AsyncConnection | None = None
        self.counters = {"failovers": 0, "resubmissions": 0}
        self._closed = False
        self._io = _LoopThread("aio-readout-shard")
        # Fail at placement time, not first dispatch, and only when *no*
        # replica is reachable: a typo'd host list should abort start-up.
        try:
            self._connect_any(1)
        except BaseException:
            self._io.close()
            raise

    # ------------------------------------------------------------- replicas
    @property
    def address(self) -> str:
        """The active replica's ``host:port`` (falls back to the first)."""
        return self._active or self.addresses[0]

    def _candidates(self) -> list[str]:
        """Dial order: after the active replica, healthy hosts first.

        Ejected hosts stay at the back as a last resort -- a wrongly
        ejected replica must not turn a degraded shard into a dead one.
        """
        ordered = list(self.addresses)
        if self._active in ordered:
            pivot = ordered.index(self._active)
            ordered = ordered[pivot + 1 :] + ordered[: pivot + 1]
        if self._pool is not None:
            ordered = self._pool.order_by_health(ordered)
        return ordered

    def _drop(self) -> None:
        """Close the active connection; its unanswered futures fail."""
        conn, self._conn = self._conn, None
        if conn is not None:
            self._io.soon(conn.close)

    def _connect_any(self, attempts: int) -> None:
        """Drop the active connection and dial replicas until one accepts."""
        self._drop()
        errors: list[str] = []
        for attempt in range(1, attempts + 1):
            delay = self._retry.delay(attempt, self._rng)
            if delay:
                time.sleep(delay)
            for candidate in self._candidates():
                if self._should_abort():
                    raise TransportError(
                        f"Shard {self.shard_index} failover aborted: the "
                        "service is closing"
                    )
                host, port = _parse_address(candidate)
                try:
                    self._conn = self._io.dial(host, port, self._connect_timeout)
                except TransportError as exc:
                    errors.append(f"{candidate}: {exc}")
                    if self._pool is not None:
                        self._pool.record_failure(candidate, error=str(exc))
                    continue
                self._active = candidate
                return
        detail = "; ".join(errors[-len(self.addresses) :]) or "no replicas"
        if self._active is None:
            raise TransportConnectError(
                f"Shard {self.shard_index} could not reach any of its "
                f"{len(self.addresses)} replica(s): {detail}"
            )
        # The budget is spent: the in-flight jobs are being failed to their
        # callers, so drop them -- a recovered replica must not be handed
        # requests nobody waits for.
        self._pending.clear()
        raise AllReplicasDownError(
            f"Shard {self.shard_index}: every replica died or refused within "
            f"the retry budget ({self._retry.attempts} attempt(s) over "
            f"{self.addresses}): {detail}"
        )

    def _transmit(self, job_ids: list[int]) -> None:
        """Tag ``job_ids`` on the active connection and send them, in order."""
        conn = self._conn
        entries = []
        for job_id in job_ids:
            seq, chunks, _conn, _future = self._pending[job_id]
            self._pending[job_id] = (seq, chunks, conn, conn.demux.register(seq))
            entries.append((seq, chunks))
        self._io.soon(conn.send_batch, entries)

    def _failover(self, reason: str) -> None:
        """Switch replica and resend every unanswered frame, byte-identical."""
        if self._pool is not None and self._active is not None:
            self._pool.record_failure(self._active, error=reason)
        self.counters["failovers"] += 1
        self._connect_any(self._retry.attempts)
        unanswered = [
            job_id
            for job_id, (_seq, _chunks, _conn, future) in self._pending.items()
            if not _answered(future)
        ]
        self.counters["resubmissions"] += len(unanswered)
        self._transmit(unanswered)

    # -------------------------------------------------------------- protocol
    def submit(
        self, job_id: int, request: ReadoutRequest, wire_meta: dict | None = None
    ) -> None:
        """Send one sub-request; it pipelines behind whatever is in flight.

        The idempotent ``request_id`` and the caller's ``wire_meta`` (trace
        ids) share one envelope; a failover resends this exact frame, so
        both survive the resend -- and the reply-cache dedup -- unchanged.
        """
        if self._closed:
            raise RuntimeError(
                f"Shard {self.shard_index} transport is closed; submit() after "
                "close() is a protocol violation"
            )
        if job_id in self._pending:
            raise RuntimeError(
                f"Shard {self.shard_index} already has job {job_id} in "
                "flight; the shard protocol is out of sync"
            )
        seq = next(self._seq)
        chunks = wire.encode_request_chunks(
            request,
            wire_meta={
                "seq": seq,
                "request_id": uuid.uuid4().hex,
                **(wire_meta or {}),
            },
        )
        self._pending[job_id] = (seq, chunks, None, None)
        try:
            if self._conn is not None and self._conn.connected:
                self._transmit([job_id])
            else:
                # The backlog rode the lost connection: the failover resend
                # carries it, this frame included, to the next replica.
                self._failover("connection lost with frames in flight")
        except BaseException:
            self._pending.pop(job_id, None)
            raise

    def collect(self, job_id: int) -> ReadoutResult:
        """Block for the tagged response to ``job_id`` (any order) and decode it."""
        if job_id not in self._pending:
            raise RuntimeError(
                f"Shard {self.shard_index} has no job {job_id} in flight; "
                "the shard protocol is out of sync"
            )
        tries = 1
        while True:
            seq, _chunks, conn, future = self._pending[job_id]
            try:
                frame = _await_reply(conn, seq, future, self._timeout)
            except (TransportError, wire.WireFormatError) as exc:
                # Includes replies slower than the per-try deadline: a slow
                # replica is failed over exactly like a dead one (the
                # request id keeps the resend idempotent).
                if tries >= self._retry.attempts:
                    self._pending.clear()
                    raise AllReplicasDownError(
                        f"Shard {self.shard_index} server at {self.address} "
                        f"died before answering job {job_id} within the retry "
                        f"budget ({tries} tries): {exc}"
                    ) from exc
                tries += 1
                self._failover(str(exc))
                continue
            del self._pending[job_id]
            if self._pool is not None:
                self._pool.record_success(self._active)
            return wire.decode_reply(frame)

    async def _swap_on(self, address: str, frame: bytes) -> bytes:
        host, port = _parse_address(address)
        conn = await _AsyncConnection(host, port, self._connect_timeout).open()
        try:
            return await conn.request([frame], 0, self._timeout)
        finally:
            conn.close()

    def swap(self, bundle_dir, expected_bundle_id: str | None = None) -> dict:
        """Hot-swap **every** replica's bundle; blocks for all SWAP acks.

        Called at the service's drain barrier, when nothing is in flight.
        Replicas are interchangeable only while they serve the same bundle,
        so the swap must land on all of them -- a failover after a partial
        swap would silently change the answers.  Any replica that cannot be
        reached or rejects the candidate fails the whole swap with a
        per-replica breakdown; the caller decides whether to retry or roll
        back (replicas that did swap keep serving the new bundle, which is
        safe only because the caller pins ``expected_bundle_id`` and retries
        or rolls back explicitly).
        """
        if self._closed:
            raise RuntimeError(
                f"Shard {self.shard_index} transport is closed; swap() after "
                "close() is a protocol violation"
            )
        if self._pending:
            raise RuntimeError(
                f"Shard {self.shard_index} has {len(self._pending)} job(s) in "
                "flight; bundle swaps happen only at a drain barrier"
            )
        spec: dict = {"bundle_dir": str(bundle_dir)}
        if expected_bundle_id is not None:
            spec["expected_bundle_id"] = str(expected_bundle_id)
        frame = wire.encode_swap_request(spec, wire_meta={"seq": 0})
        swapped: list[str] = []
        failures: list[str] = []
        for key in self.addresses:
            try:
                wire.decode_swap(
                    self._io.call(
                        self._swap_on(key, frame),
                        self._connect_timeout + self._timeout + 10.0,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - aggregated below
                failures.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            swapped.append(key)
            if self._pool is not None:
                self._pool.record_success(key)
        if failures:
            raise TransportError(
                f"Shard {self.shard_index} bundle swap incomplete: "
                f"swapped {swapped or 'no replicas'}, failed "
                f"[{'; '.join(failures)}]"
            )
        return {"swapped": True, "replicas": swapped, "bundle_dir": str(bundle_dir)}

    def is_alive(self) -> bool:
        """Whether the placement can still answer submitted work."""
        return not self._closed and self._conn is not None and self._conn.connected

    def close(self, timeout: float = 5.0) -> None:
        """Drop the connection (the remote servers keep running)."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        conn, self._conn = self._conn, None
        self._io.close(conn)


# --------------------------------------------------------------------------
# Server-in-a-process helper and CLI
# --------------------------------------------------------------------------


class ServerProcessHandle:
    """An :class:`AsyncReadoutServer` running in a child process on this host."""

    def __init__(self, process, pipe, address: tuple[str, int]) -> None:
        self.process = process
        self._pipe = pipe
        self.address = address

    def close(self, timeout: float = 10.0) -> None:
        """Ask the server process to drain and exit (escalating to terminate)."""
        try:
            self._pipe.send("stop")
        except (OSError, ValueError, BrokenPipeError):  # pragma: no cover
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - hung server
            self.process.terminate()
            self.process.join(timeout)
        self._pipe.close()

    def __enter__(self) -> "ServerProcessHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _async_server_process_main(bundle_dir: str, host: str, port: int, pipe) -> None:
    server = AsyncReadoutServer(bundle_dir, host=host, port=port)
    try:
        server.start()
    except Exception as exc:  # noqa: BLE001 - surfaced to the parent
        pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        return
    pipe.send(("ok", server.address))
    try:
        pipe.recv()  # blocks until "stop" or the parent (pipe) goes away
    except EOFError:  # pragma: no cover - parent died
        pass
    server.close()


def spawn_async_server(
    bundle_dir: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServerProcessHandle:
    """Run an :class:`AsyncReadoutServer` in a daemonic child process.

    Blocks until the child has bound its socket and reports the address (or
    failed to load the bundle).  The bench and the loopback tests use this
    so server and client do not share a GIL.
    """
    import multiprocessing

    parent_pipe, child_pipe = multiprocessing.Pipe()
    process = multiprocessing.Process(
        target=_async_server_process_main,
        args=(str(bundle_dir), host, int(port), child_pipe),
        name="readout-server",
        daemon=True,
    )
    process.start()
    if not parent_pipe.poll(60.0):  # pragma: no cover - wedged child
        process.terminate()
        raise TransportError("Spawned readout server did not report an address")
    status, payload = parent_pipe.recv()
    if status != "ok":
        process.join(5.0)
        raise TransportError(f"Spawned readout server failed to start: {payload}")
    return ServerProcessHandle(process, parent_pipe, tuple(payload))


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.service.aio BUNDLE [--host H] [--port P]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.aio",
        description="Serve a readout artifact bundle over TCP.",
    )
    parser.add_argument("bundle", type=Path, help="artifact bundle directory")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks a free one)"
    )
    parser.add_argument(
        "--max-workers", type=int, default=None, help="engine worker-thread cap"
    )
    parser.add_argument(
        "--executor-workers",
        type=int,
        default=4,
        help="serve-executor thread cap (engine work off the event loop)",
    )
    args = parser.parse_args(argv)
    server = AsyncReadoutServer(
        args.bundle,
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        executor_workers=args.executor_workers,
    )
    server.start()
    host, port = server.address
    print(f"Serving {args.bundle} on {host}:{port}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
