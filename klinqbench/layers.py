"""The traced run: per-layer metrics from spans and unloaded tier probes.

Every traced run reports every per-layer metric, whichever workload it was
started for: it probes each serving tier unloaded, then runs each workload
once untraced and once traced, and derives the layer metrics from the
spans.  ``README.md`` in this directory records which end-to-end metric and
workload each per-layer metric should move.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from klinqbench import deploy
from klinqbench.stats import Tally, metric, percentile, self_time, union_length
from klinqbench.trace import Instrument, Tracer
from klinqbench.workloads import TAIL_PCT, WORKLOADS, Phase

_MODULES = ("average", "normalize", "matched_filter", "dense0", "dense1", "dense2", "threshold")

#: Unloaded probe repetitions per tier.
PROBE_REPS = 200


def _backend_attrs(args) -> dict:
    backend, traces = args[0], args[1]
    window = backend.parameters.samples_per_interval
    return {"arch": deploy.ARCH.get(window, str(window)), "shots": int(np.shape(traces)[0])}


def _dense_attrs(args) -> dict:
    # Layer 0 takes the feature vector; the hidden layers are 16 and 8 wide.
    return {"layer": {16: 1, 8: 2}.get(args[0].n_inputs, 0)}


def instrument_targets():
    """The public entry points each traced phase wraps in spans."""
    import repro.readout.preprocessing as preprocessing
    from repro.engine import FixedPointBackend, ReadoutEngine
    from repro.fpga import modules
    from repro.service import ReadoutService

    return [
        (ReadoutService, "submit", "service.submit", None),
        (ReadoutEngine, "serve", "engine.serve", None),
        (FixedPointBackend, "predict_states", "backend", _backend_attrs),
        (FixedPointBackend, "predict_states_from_raw", "backend", _backend_attrs),
        (preprocessing, "digitize_traces", "digitize", None),
        (modules.AverageModule, "forward", "average", None),
        (modules.NormalizeModule, "forward", "normalize", None),
        (modules.MatchedFilterModule, "forward", "matched_filter", None),
        (modules.DenseLayerModule, "forward", "dense", _dense_attrs),
        (modules.ThresholdModule, "forward", "threshold", None),
    ]


# --------------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------------


def children_of(spans) -> dict:
    """Direct children per span id.

    A span recorded without a parent but with a request id (an interval the
    open-loop generator measured) is a child of that request's root.
    """
    roots = {s.request: s for s in spans if s.name == "request"}
    children: dict = {}
    for s in spans:
        parent = s.parent
        if parent is None and s.name != "request" and s.request in roots:
            parent = roots[s.request].span_id
        if parent is not None:
            children.setdefault(parent, []).append(s)
    return children


def coverage(spans) -> float:
    """Share of every parent span's time that its direct children cover.

    Time-weighted over all spans that have children; 1.0 means each layer's
    calls into the layer below account for all of its time.
    """
    children = children_of(spans)
    covered = total = 0.0
    for s in spans:
        kids = children.get(s.span_id)
        if kids:
            total += s.duration
            covered += union_length([(k.start, k.end) for k in kids], s.start, s.end)
    return covered / total if total else 0.0


def bulk_layers(spans) -> dict:
    children = children_of(spans)
    out = {}
    backends = [s for s in spans if s.name == "backend"]
    shots = {arch: 0 for arch in deploy.ARCH.values()}
    glue = {arch: 0.0 for arch in deploy.ARCH.values()}
    for s in backends:
        shots[s.attrs["arch"]] += s.attrs["shots"]
        kids = [(k.start, k.end) for k in children.get(s.span_id, ())]
        glue[s.attrs["arch"]] += self_time(s.start, s.end, kids)
    total_shots = sum(shots.values())
    digitize = sum(s.duration for s in spans if s.name == "digitize")
    out["readout.digitize_ns_per_qshot"] = metric(digitize / total_shots * 1e9, "ns")
    for arch in shots:
        busy = {name: 0.0 for name in _MODULES}
        for s in spans:
            if s.attrs.get("arch") != arch:
                continue
            name = f"dense{s.attrs['layer']}" if s.name == "dense" else s.name
            if name in busy:
                busy[name] += s.duration
        for name in _MODULES + ("glue",):
            seconds = glue[arch] if name == "glue" else busy[name]
            out[f"fpga.{arch}.{name}_ns_per_qshot"] = metric(seconds / shots[arch] * 1e9, "ns")
    in_backends, overhead = [], []
    for s in spans:
        if s.name == "engine.serve":
            busy = sum(k.duration for k in children.get(s.span_id, ()) if k.name == "backend")
            in_backends.append(busy)
            overhead.append(s.duration - busy)
    out["engine.backends_ms.bulk"] = metric(statistics.median(in_backends) * 1e3, "ms")
    out["engine.fanout_overhead_ms.bulk"] = metric(statistics.median(overhead) * 1e3, "ms")
    return out


def feedback_layers(spans) -> dict:
    submits = [s.duration for s in spans if s.name == "service.submit"]
    return {"service.submit_us.feedback": metric(statistics.median(submits) * 1e6, "us")}


# --------------------------------------------------------------------------
# Unloaded tier probes
# --------------------------------------------------------------------------


def _probe(tally, states_of, requests, expected, reps=PROBE_REPS) -> float:
    """Median seconds of ``states_of(request)`` over ``reps`` sequential calls, checked."""
    samples = []
    for i in range(reps):
        k = i % len(requests)
        t0 = time.perf_counter()
        states = states_of(requests[k])
        samples.append(time.perf_counter() - t0)
        tally.check(states, expected[k])
    return statistics.median(samples)


def _time(fn, reps=PROBE_REPS) -> tuple[float, object]:
    samples, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), out


def tier_probes(works, handles, tally) -> dict:
    """Each serving tier unloaded, so each tier's overhead is a subtraction."""
    from repro.engine import wire
    from repro.service import AsyncRemoteEngineClient

    engine = handles["bulk"]
    fb, st = works["feedback"], works["stream"]
    out = {}

    def one_shot(request):
        backend = engine.backends[request.qubits[0]]
        return backend.predict_states_from_raw(request.raw[:, 0])[:, None]

    def states(serve):
        return lambda request: serve(request).states

    deployment = handles["stream"]
    fpga_1shot = _probe(tally, one_shot, fb.requests, fb.expected)
    engine_fb = _probe(tally, states(engine.serve), fb.requests, fb.expected)
    engine_st = _probe(tally, states(engine.serve), st.requests, st.expected)
    service_fb = _probe(tally, states(handles["feedback"].serve), fb.requests, fb.expected)
    with AsyncRemoteEngineClient(*deployment.servers[0].address) as client:
        rtt = _probe(tally, states(client.serve), st.requests, st.expected)
    service_tcp = _probe(tally, states(deployment.service.serve), st.requests, st.expected)
    out["fpga.call_us_1shot"] = metric(fpga_1shot * 1e6, "us")
    out["engine.serve_us.feedback"] = metric(engine_fb * 1e6, "us")
    out["engine.serve_us.stream"] = metric(engine_st * 1e6, "us")
    out["service.serve_us.feedback"] = metric(service_fb * 1e6, "us")
    out["service.overhead_us.feedback"] = metric((service_fb - engine_fb) * 1e6, "us")
    out["net.client_rtt_us.stream"] = metric(rtt * 1e6, "us")
    out["net.overhead_us.stream"] = metric((rtt - engine_st) * 1e6, "us")
    out["transport.service_tcp_us.stream"] = metric(service_tcp * 1e6, "us")
    out["transport.shard_overhead_us.stream"] = metric((service_tcp - rtt) * 1e6, "us")

    request = st.requests[0]
    result = engine.serve(request)
    enc_req, frame = _time(lambda: wire.encode_request(request))
    dec_req, decoded = _time(lambda: wire.decode_request(frame))
    enc_res, reply = _time(lambda: wire.encode_result(result))
    dec_res, back = _time(lambda: wire.decode_result(reply))
    tally.check(decoded.raw, request.raw)
    tally.check(back.states, st.expected[0])
    out["wire.encode_request_us"] = metric(enc_req * 1e6, "us")
    out["wire.decode_request_us"] = metric(dec_req * 1e6, "us")
    out["wire.encode_result_us"] = metric(enc_res * 1e6, "us")
    out["wire.decode_result_us"] = metric(dec_res * 1e6, "us")
    out["wire.request_bytes"] = metric(len(frame), "bytes")
    out["wire.result_bytes"] = metric(len(reply), "bytes")
    return out


# --------------------------------------------------------------------------
# The traced run
# --------------------------------------------------------------------------


def _service_counts(handle):
    service = getattr(handle, "service", handle)
    stats = service.stats
    return stats.requests_served, stats.batches, stats.coalesced_requests


def traced_run(named: str, seed: int, seconds: float, build: Path):
    """Probe every tier, then run every workload untraced and traced.

    ``named`` only orders the report; every traced run produces every
    per-layer metric.  Spans are written once, at the end, one JSON-lines
    file per workload under ``build``.
    """
    build.mkdir(parents=True, exist_ok=True)
    bundle = Path(tempfile.mkdtemp(prefix="bundle-", dir=build))
    tallies = []
    metrics: dict = {}
    tracers = {}
    try:
        deploy.save_bundle(bundle)
        oracle = deploy.Oracle.build()
        works = {name: cls(bundle, seed, oracle) for name, cls in WORKLOADS.items()}
        handles = {}
        try:
            # The stream servers fork first, before this process starts threads.
            for name in ("stream", "bulk", "feedback"):
                handles[name] = works[name].start()
                if not works[name].first(handles[name]):
                    raise RuntimeError(f"{name}: first answer disagrees with the oracle")
            probes = Tally("probes")
            tallies.append(probes)
            metrics.update(tier_probes(works, handles, probes))
            per_pass = seconds / len(works) / 2
            for name in sorted(works, key=lambda n: n != named):
                work, handle = works[name], handles[name]
                before = _service_counts(handle) if name != "bulk" else None
                plain = work.measure(handle, per_pass)
                after = _service_counts(handle) if name != "bulk" else None
                tracer = Tracer(closed_loop=work.closed_loop)
                gc.collect()
                with Instrument(tracer, instrument_targets()):
                    traced = work.measure(handle, per_pass, tracer)
                tracers[name] = tracer
                plain.tally.phase += "-untraced"
                traced.tally.phase += "-traced"
                tallies += [plain.tally, traced.tally]
                metrics.update(
                    _workload_layers(name, plain, traced, tracer.spans, before, after, metrics)
                )
        finally:
            for name, handle in handles.items():
                works[name].close(handle)
    finally:
        shutil.rmtree(bundle, ignore_errors=True)
    for name, tracer in tracers.items():
        tracer.dump(build / f"spans-{name}.jsonl")
    return dict(sorted(metrics.items())), tallies


def _workload_layers(name, plain: Phase, traced: Phase, spans, before, after, probes) -> dict:
    out = {
        f"bench.latency_tail_ms.{name}": metric(plain.tail_ms(TAIL_PCT[name])[1], "ms"),
        f"bench.trace_coverage.{name}": metric(coverage(spans), "ratio"),
        f"bench.trace_overhead.{name}.latency_p50_ms": metric(
            traced.p50_ms() - plain.p50_ms(), "ms"
        ),
        f"bench.trace_overhead.{name}.qshots_per_s": metric(
            traced.qshots_per_s() - plain.qshots_per_s(), "qshots/s"
        ),
    }
    if before is not None:
        served, batches, coalesced = (b - a for a, b in zip(before, after))
        out[f"service.batch_requests_mean.{name}"] = metric(served / batches, "requests")
        if name == "stream":
            out["service.coalesced_frac.stream"] = metric(coalesced / served, "ratio")
    if name == "bulk":
        out.update(bulk_layers(spans))
    elif name == "feedback":
        out.update(feedback_layers(spans))
    else:
        out["bench.sched_lag_p99_ms.stream"] = metric(percentile(plain.lags_s, 99) * 1e3, "ms")
        tcp_ms = probes["transport.service_tcp_us.stream"]["value"] / 1e3
        out["service.queue_wait_ms.stream"] = metric(plain.p50_ms() - tcp_ms, "ms")
    return out
