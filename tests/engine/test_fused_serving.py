"""Serving through the emulator's fused kernel: ADC saturation and threads.

The fixed-point backends digitize float traces inside a per-call float64
arena.  These tests pin two engine-level consequences: a float sample far
past the rail serves exactly like its correctly saturated raw carrier, and
concurrent ``serve`` calls on one engine -- which share every emulator --
answer bit-identically to a single-threaded call.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from make_golden import CASES, build_parameters, build_traces

from repro.engine import FixedPointBackend, ReadoutEngine, ReadoutRequest
from repro.readout.preprocessing import digitize_traces

FMT = CASES["q16_16"]


def _engine(n_qubits: int = 3) -> ReadoutEngine:
    return ReadoutEngine(
        [FixedPointBackend(build_parameters(FMT, seed=2025 + q)) for q in range(n_qubits)]
    )


def _traces(n_shots: int, n_qubits: int = 3) -> np.ndarray:
    rng = np.random.default_rng(17)
    base = np.stack([build_traces(seed=q) for q in range(n_qubits)], axis=1)
    picks = rng.integers(0, base.shape[0], size=n_shots)
    return base[picks] + rng.normal(0.0, 0.05, size=(n_shots,) + base.shape[1:])


def test_huge_float_sample_serves_like_its_saturated_raw_carrier():
    engine = _engine()
    traces = _traces(8)
    traces[0, 1, 3, 0] = 1e15  # one sample far past the rail
    traces[1, 2] = 1e15  # a whole trace past the rail
    carriers = digitize_traces(traces)
    assert carriers[0, 1, 3, 0] == FMT.max_raw
    assert np.all(carriers[1, 2] == FMT.max_raw)
    wrapped = carriers.copy()
    wrapped[1, 2] = FMT.min_raw  # what an int64 cast before the clip produced
    with engine:
        from_float = engine.serve(ReadoutRequest(traces=traces, output="logits"))
        from_raw = engine.serve(ReadoutRequest(raw=carriers, output="logits"))
        from_wrapped = engine.serve(ReadoutRequest(raw=wrapped, output="logits"))
    np.testing.assert_array_equal(from_float.logits, from_raw.logits)
    assert from_float.logits[1, 2] != from_wrapped.logits[1, 2]


def test_concurrent_serves_match_a_single_threaded_call():
    """Four threads share one engine; the arena is per call, not per emulator."""
    engine = _engine()
    traces = _traces(300)  # more than one 256-shot arena chunk
    carriers = digitize_traces(traces)
    requests = [
        ReadoutRequest(traces=traces, output="states"),
        ReadoutRequest(traces=traces[:37], output="logits"),
        ReadoutRequest(raw=carriers, output="both"),
        ReadoutRequest(raw=carriers[5:9][:, [2, 0]], output="states", qubits=(2, 0)),
        ReadoutRequest(traces=traces[:1, [1]], output="both", qubits=(1,)),
    ]

    def answer(request):
        result = engine.serve(request)
        return result.states, result.logits

    expected = [answer(request) for request in requests]
    errors: list = []
    barrier = threading.Barrier(4)

    def worker(offset: int) -> None:
        try:
            barrier.wait(timeout=30)
            for step in range(40):
                index = (offset + step) % len(requests)
                states, logits = answer(requests[index])
                want_states, want_logits = expected[index]
                for got, want in ((states, want_states), (logits, want_logits)):
                    if (got is None) != (want is None) or (
                        got is not None and not np.array_equal(got, want)
                    ):
                        errors.append((offset, step, index))
        except Exception as exc:  # reported through the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        engine.close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
