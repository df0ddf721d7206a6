"""Tests of the benchmark's own arithmetic and bookkeeping.

Run with ``PYTHONPATH=src python -m pytest klinqbench -q``.
"""

import threading
import time

import numpy as np
import pytest

from klinqbench import deploy
from klinqbench.layers import coverage
from klinqbench.stats import (
    Tally,
    beyond,
    due_latencies,
    percentile,
    self_time,
    supports,
    tail,
    union_length,
)
from klinqbench.trace import Span, Tracer
from klinqbench.workloads import SEGMENTS, Phase


def test_nearest_rank_percentile_returns_an_observed_value():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 1) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_tail_needs_ten_samples_beyond_it():
    assert beyond(1000, 99) == 10 and supports(1000, 99)
    assert beyond(999, 99) == 9 and not supports(999, 99)
    # 500 samples cannot support p99 (5 beyond); p98 has exactly 10 beyond.
    values = list(range(500))
    level, value = tail(values, 99)
    assert level == 98.0
    assert value == percentile(values, 98)
    assert tail(list(range(1000)), 99)[0] == 99.0


def test_self_time_subtracts_the_union_of_children():
    assert union_length([(1, 3), (2, 5), (8, 12)]) == 8
    assert union_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert self_time(0, 10, [(1, 3), (2, 5), (8, 12)]) == 4
    assert self_time(0, 10, []) == 10


def test_coverage_is_time_weighted_over_parents():
    spans = [
        Span("request", 0.0, 10.0, None, 1, 1),
        Span("engine.serve", 1.0, 10.0, 1, 1, 2),
        Span("backend", 1.0, 4.0, 2, 1, 3),
        Span("backend", 3.0, 7.0, 2, 1, 4),
    ]
    # request covers 9 of 10; serve covers 6 of 9 (children overlap).
    assert coverage(spans) == pytest.approx((9 + 6) / (10 + 9))


def test_open_loop_latency_counts_from_the_due_time():
    # Three requests due every 10 ms; the generator stalled 25 ms before the
    # second send, and the service answers 2 ms after each send.
    dues = [0.000, 0.010, 0.020]
    sends = [0.000, 0.035, 0.036]
    done = [s + 0.002 for s in sends]
    assert due_latencies(dues, done) == pytest.approx([0.002, 0.027, 0.018])


def test_tally_counts_every_failure_kind():
    tally = Tally("phase")
    assert tally.check(np.array([[1, 0]]), np.array([[1, 0]]))
    assert not tally.check(np.array([[1, 1]]), np.array([[1, 0]]))
    tally.fail("shed")
    tally.fail("timeouts")
    tally.fail("errors")
    assert (tally.attempted, tally.succeeded, tally.failed) == (5, 1, 4)
    assert (tally.mismatched, tally.shed, tally.timeouts, tally.errors) == (1, 1, 1, 1)
    assert "failed 4" in tally.line()


def test_phase_reports_the_least_disturbed_segment():
    n = 1000 * SEGMENTS
    stamps = [(i + 0.5) / n for i in range(n)]
    latencies = [0.001] * n
    qshots = [1] * n
    # A stalled segment: slow answers and only half of them arrived.
    for i in range(n // SEGMENTS):
        latencies[i] = 1.0
        qshots[i] = i % 2
    phase = Phase(Tally("p"), 0.0, 1.0, stamps, latencies, qshots)
    assert len(phase.segments()) == SEGMENTS
    assert phase.p50_ms() == pytest.approx(1.0)
    assert phase.qshots_per_s() == pytest.approx(n)
    # The tail is pooled over the whole phase, so the stall shows there.
    assert phase.tail_ms(99) == (99.0, pytest.approx(1000.0))


def test_closed_loop_spans_on_other_threads_join_the_request():
    tracer = Tracer(closed_loop=True)

    def worker():
        with tracer.span("backend"):
            time.sleep(0.001)

    with tracer.span("request", request=7) as root:
        with tracer.span("engine.serve") as serve:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(5)
    assert not thread.is_alive()
    backend = next(s for s in tracer.spans if s.name == "backend")
    assert backend.parent == serve.span_id and backend.request == 7
    assert serve.parent == root.span_id


def test_module_path_oracle_matches_the_emulator():
    rng = np.random.default_rng(0)
    raw = deploy.adc(deploy.synth_traces(rng, 16, range(deploy.N_QUBITS)))
    oracle = deploy.Oracle.build()
    states = oracle.states(raw)
    for qubit, emulator in enumerate(oracle.emulators):
        logits = emulator.predict_logits_from_raw(raw[:, qubit])
        assert np.array_equal(states[:, qubit], (logits >= 0).astype(np.int64))
    # The parameters give both answers, so a wrong datapath cannot hide.
    assert 0 < states.mean() < 1


def test_inputs_depend_only_on_the_seed():
    a = deploy.synth_traces(np.random.default_rng(5), 4, [0, 3])
    b = deploy.synth_traces(np.random.default_rng(5), 4, [0, 3])
    c = deploy.synth_traces(np.random.default_rng(6), 4, [0, 3])
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert a.shape == (4, 2, deploy.N_SAMPLES, 2)
