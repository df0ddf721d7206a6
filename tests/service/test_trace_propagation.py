"""Trace-id propagation across every serving placement.

The telemetry tentpole's core claim: a trace id minted (or supplied) at the
submit edge rides the wire ``meta`` of whatever placement serves the
request -- in-process, local shard workers over pipes, loopback TCP, and
replicated TCP *through an injected failover resend* -- and comes back in
``ReadoutResult.meta["trace_id"]``.  On sharded paths the service prefers
the transport-echoed id over its locally remembered copy, so the equality
asserts here prove the id actually crossed the wire and returned, not that
the service remembered it.

The whole module escalates warnings to errors: propagation has to be
clean, not merely working.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ReadoutRequest
from repro.service import (
    ChaosProxy,
    ChaosTransport,
    AsyncReadoutServer,
    FaultSchedule,
    ReadoutService,
    RetryPolicy,
    spawn_async_server,
)

pytestmark = pytest.mark.filterwarnings("error")

FAST_RETRY = RetryPolicy(
    attempts=4, try_timeout_s=5.0, backoff_base_s=0.01, jitter_s=0.0
)


class TestInProcess:
    def test_supplied_trace_id_is_echoed(self, service_engine, service_carriers):
        with ReadoutService(engine=service_engine, max_wait_ms=0) as service:
            future = service.submit(
                ReadoutRequest(raw=service_carriers[:4]), trace_id="trace-inproc"
            )
            assert future.result().meta["trace_id"] == "trace-inproc"

    def test_minted_trace_ids_are_distinct_per_request(
        self, service_engine, service_carriers
    ):
        with ReadoutService(engine=service_engine, max_wait_ms=0) as service:
            metas = [
                service.serve(ReadoutRequest(raw=service_carriers[:4])).meta
                for _ in range(3)
            ]
        ids = [meta["trace_id"] for meta in metas]
        assert all(ids) and len(set(ids)) == 3

    def test_each_microbatched_entry_keeps_its_own_trace_id(
        self, service_engine, service_carriers
    ):
        service = ReadoutService(
            engine=service_engine, max_batch=8, autostart=False
        )
        try:
            futures = [
                service.submit(
                    ReadoutRequest(raw=service_carriers[:4]),
                    trace_id=f"trace-{index}",
                )
                for index in range(3)
            ]
            service.start()
            results = [future.result() for future in futures]
        finally:
            service.close()
        # They shared one dispatch, yet each answer names its own request.
        assert all(r.meta["microbatch_requests"] == 3 for r in results)
        assert [r.meta["trace_id"] for r in results] == [
            "trace-0", "trace-1", "trace-2"
        ]

    def test_telemetry_off_means_no_minted_ids(
        self, service_engine, service_carriers
    ):
        with ReadoutService(
            engine=service_engine, max_wait_ms=0, telemetry=False
        ) as service:
            meta = service.serve(ReadoutRequest(raw=service_carriers[:4])).meta
        assert "trace_id" not in meta and "stage_ms" not in meta


class TestLocalShards:
    def test_trace_survives_the_worker_pipe(
        self, service_bundle, service_engine, service_carriers
    ):
        direct = service_engine.serve(ReadoutRequest(raw=service_carriers))
        with ReadoutService(
            bundle_dir=service_bundle, n_shards=2, max_wait_ms=0
        ) as service:
            future = service.submit(
                ReadoutRequest(raw=service_carriers), trace_id="trace-local"
            )
            result = future.result()
        np.testing.assert_array_equal(result.states, direct.states)
        assert result.meta["trace_id"] == "trace-local"

    def test_trace_survives_worker_respawn_and_redispatch(
        self, service_bundle, service_engine, service_carriers
    ):
        direct = service_engine.serve(ReadoutRequest(raw=service_carriers))
        schedule = FaultSchedule(["kill"])  # first touch of shard 0 kills it
        with ReadoutService(
            bundle_dir=service_bundle,
            n_shards=2,
            retry=FAST_RETRY,
            failover_seed=3,
        ) as service:
            service._shards[0] = ChaosTransport(service._shards[0], schedule)
            future = service.submit(
                ReadoutRequest(raw=service_carriers), trace_id="trace-respawn"
            )
            result = future.result()
            stats = service.stats
        np.testing.assert_array_equal(result.states, direct.states)
        assert result.meta["trace_id"] == "trace-respawn"
        assert stats.worker_respawns >= 1
        assert stats.redispatches >= 1


class TestTcp:
    def test_trace_survives_the_socket(
        self, service_bundle, service_engine, service_carriers
    ):
        direct = service_engine.serve(ReadoutRequest(raw=service_carriers))
        handles = [spawn_async_server(service_bundle) for _ in range(2)]
        try:
            hosts = [handle.address for handle in handles]
            with ReadoutService(
                shard_hosts=hosts, max_wait_ms=0, remote_timeout=60.0
            ) as service:
                future = service.submit(
                    ReadoutRequest(raw=service_carriers), trace_id="trace-tcp"
                )
                result = future.result()
        finally:
            for handle in handles:
                handle.close()
        np.testing.assert_array_equal(result.states, direct.states)
        assert result.meta["trace_id"] == "trace-tcp"

    def test_trace_survives_replicated_failover_resend_and_dedup(
        self, service_bundle, service_engine, service_carriers
    ):
        """The nastiest path: the reply is dropped *after* the server computed.

        The replica list points at the same server twice -- once through a
        proxy scripted to drop the first reply, once directly -- so the
        failover resend is answered from the server's idempotent reply
        cache.  The trace id must ride the original frame, the byte-identical
        resend, and the deduplicated reply alike.
        """
        direct = service_engine.serve(ReadoutRequest(raw=service_carriers))
        # connect: pass, first reply: dropped, then everything passes.
        schedule = FaultSchedule(["pass", "drop"])
        with AsyncReadoutServer(service_bundle) as server:
            with ChaosProxy(server.address, schedule) as proxy:
                with ReadoutService(
                    bundle_dir=service_bundle,
                    shard_hosts=[[proxy.address, server.address]],
                    retry=FAST_RETRY,
                    remote_timeout=60.0,
                    failover_seed=7,
                    max_wait_ms=0,
                ) as service:
                    future = service.submit(
                        ReadoutRequest(raw=service_carriers),
                        trace_id="trace-failover",
                    )
                    result = future.result()
                    stats = service.stats
            assert proxy.counters["dropped"] == 1
            assert server.deduplicated_replies >= 1
        np.testing.assert_array_equal(result.states, direct.states)
        np.testing.assert_array_equal(
            result.states, service_engine.serve(
                ReadoutRequest(raw=service_carriers)
            ).states,
        )
        assert result.meta["trace_id"] == "trace-failover"
        assert stats.failovers >= 1
