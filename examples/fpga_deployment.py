"""FPGA deployment: quantize a trained student and serve it through an engine.

This example reproduces the paper's hardware story in software:

1. train one KLiNQ student (teacher + distillation) for the easiest qubit,
2. quantize every constant (weights, matched-filter envelope, normalization
   parameters) to the 32-bit Q16.16 fixed-point format used on the ZCU216,
3. stand both datapaths behind the unified ``ReadoutBackend`` protocol --
   ``backend="float"`` for the float64 student, ``backend="fpga"`` for the
   bit-exact integer emulation -- and compare their decisions,
4. package the trained system as a deployable ``ReadoutEngine`` artifact
   bundle (``manifest.json`` + per-qubit weights, checksummed), reload it,
   and serve it the way the hardware is served: digitize the capture once
   into int32 raw carriers and hand ``serve()`` a raw-carrier
   ``ReadoutRequest`` -- the one dispatch path behind every serving surface
   -- verifying it is bit-identical to the float-trace request and survives
   the bundle round trip,
5. put a ``ReadoutService`` front-end over the reloaded engine and push many
   small concurrent requests through it: the service coalesces them into
   micro-batches (and can shard qubit groups across worker processes with
   ``n_shards >= 2``), bit-identical to direct ``serve()`` calls,
6. print the latency (clock-cycle) and resource (LUT/FF/DSP) estimates for
   both student configurations, next to the values reported in Table III.

Run it with::

    python examples/fpga_deployment.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis import prepare_dataset
from repro.analysis.tables import format_table
from repro.core import scaled_experiment_config
from repro.core.config import FNN_A, FNN_B, default_student_assignment
from repro.core.pipeline import QubitReadoutPipeline
from repro.engine import FixedPointBackend, ReadoutEngine, ReadoutRequest, make_backend
from repro.service import ReadoutService
from repro.fpga import LatencyModel, ResourceModel, quantize_student
from repro.fpga.report import PAPER_TABLE3
from repro.readout import digitize_traces


def main() -> None:
    # 1. Train one per-qubit pipeline ---------------------------------------
    config = scaled_experiment_config(seed=1, shots_per_state_train=25, shots_per_state_test=50)
    artifacts = prepare_dataset(config)
    qubit_index = 0
    print(f"Training teacher + student for qubit {qubit_index + 1} ...")
    pipeline = QubitReadoutPipeline(qubit_index, config.students[qubit_index], config)
    view = artifacts.dataset.qubit_view(qubit_index)
    result = pipeline.run(view, distill=True)
    student = pipeline.require_student()
    print(f"Float student fidelity: {result.student_fidelity:.3f} "
          f"({student.parameter_count} parameters)")

    # 2. Quantize to Q16.16 ---------------------------------------------------
    parameters = quantize_student(student)
    print(f"\nQuantized constants: {parameters.memory_footprint_bits() // 8} bytes of "
          f"block-RAM image in {parameters.fmt} format")

    # 3. One protocol, two datapaths -----------------------------------------
    # Every serving surface picks the datapath with one string; the backends
    # share the ReadoutBackend protocol, so the comparison below is symmetric.
    # (make_backend(student, kind="fpga") would quantize internally; the
    # constants from step 2 are reused here so the footprint printed above is
    # exactly what the backend serves.)
    float_backend = make_backend(student, kind="float")
    fpga_backend = FixedPointBackend(parameters, student=student)
    # Both backends threshold their logit at zero, so one inference pass per
    # backend yields both the logits and the hard assignments.
    float_logits = float_backend.predict_logits(view.test_traces)
    fpga_logits = fpga_backend.predict_logits(view.test_traces)
    float_states = (float_logits >= 0.0).astype(np.int64)
    fpga_states = (fpga_logits >= 0.0).astype(np.int64)
    logit_gap = np.abs(float_logits - fpga_logits)
    print(
        f"\nBackend comparison on {view.test_traces.shape[0]} held-out shots: "
        f"agreement={np.mean(float_states == fpga_states):.4f}, "
        f"max |logit error|={logit_gap.max():.4f} "
        f"(bit-exact integer datapath: {fpga_backend.is_bit_exact})"
    )

    # 4. Deployable artifact bundle, served through ReadoutRequest -> serve() -
    # The deployed datapath never sees floats: the ADC hands the FPGA integer
    # samples.  Digitize the capture once (the ADC step) and hand serve() a
    # raw-carrier request -- no per-call float round-trip -- checking
    # bit-identity against the float-trace request.  serve() is the one
    # dispatch path; states/logits/both, qubit subsets, float or raw are all
    # the same call.
    engine = ReadoutEngine([fpga_backend])
    multiplexed = view.test_traces[:, None, :, :]  # (shots, 1 qubit, samples, 2)
    carriers = digitize_traces(multiplexed)        # int32 raw ADC carriers
    reference = engine.serve(ReadoutRequest(traces=multiplexed, output="logits"))
    raw_result = engine.serve(ReadoutRequest(raw=carriers, output="both"))
    assert np.array_equal(reference.logits, raw_result.logits)
    print(
        f"\nRaw-carrier serving: {carriers.shape[0]} shots digitized once to "
        f"{carriers.dtype}; the raw request is bit-identical to the float "
        f"round-trip (engine.supports_raw={engine.supports_raw}, "
        f"served in {raw_result.elapsed_s * 1e3:.1f} ms)"
    )
    with tempfile.TemporaryDirectory() as tmp:
        bundle_dir = Path(tmp) / "readout-v1"
        manifest_path = engine.save(bundle_dir)
        artifact_files = sorted(
            str(p.relative_to(bundle_dir)) for p in bundle_dir.rglob("*") if p.is_file()
        )
        print(f"Saved engine bundle to {bundle_dir.name}/: {', '.join(artifact_files)}")
        loaded = ReadoutEngine.load(bundle_dir)
        reloaded = loaded.serve(ReadoutRequest(raw=carriers, output="logits"))
        assert np.array_equal(reference.logits, reloaded.logits)
        manifest = json.loads(manifest_path.read_text())
        print(
            f"Reloaded engine ({loaded.backend_kind} backend, "
            f"{loaded.n_qubits} qubit, carrier dtype "
            f"{manifest['qubits'][0]['carrier_dtype']}, shard hints for "
            f"{manifest['shard_layout']['max_shards']} shard(s)) serves "
            f"bit-identical raw-carrier logits: {manifest_path.name} "
            "checksums verified"
        )
        # max_workers is the engine's one fan-out setting: 1 serves the
        # qubits one after another, the default fans them out over threads.
        sequential_engine = ReadoutEngine(loaded.backends, max_workers=1)
        sequential = sequential_engine.serve(ReadoutRequest(raw=carriers))
        parallel = loaded.serve(ReadoutRequest(raw=carriers))
        assert np.array_equal(sequential.states, parallel.states)
        print("Parallel and sequential raw serving paths are bit-identical.")

        # 5. A micro-batching service front-end over the same deployment -----
        # Heavy traffic is many small concurrent requests, not one offline
        # batch.  ReadoutService coalesces them on a bounded queue and
        # dispatches micro-batches through the same serve() path (with
        # n_shards >= 2 it would shard qubit groups across worker processes,
        # each loading the bundle saved above).
        chunk = 16
        requests = [
            ReadoutRequest(raw=carriers[start : start + chunk])
            for start in range(0, carriers.shape[0], chunk)
        ]
        with ReadoutService(engine=loaded, max_batch=16, max_wait_ms=5.0) as service:
            futures = [service.submit(request) for request in requests]
            served = np.concatenate([future.result().states for future in futures])
        assert np.array_equal(served, sequential.states)
        stats = service.stats
        print(
            f"ReadoutService answered {stats.requests_served} concurrent "
            f"requests in {stats.batches} micro-batch dispatch(es) "
            f"(largest {stats.largest_batch_shots} shots), bit-identical to "
            "direct serve()."
        )

    # 6. Latency and resource estimates at paper scale ------------------------
    print("\nLatency / resource model at paper scale (500-sample traces, 100 MHz):")
    rows = []
    for architecture in (FNN_A, FNN_B):
        latency = LatencyModel(architecture, n_samples=500, clock_mhz=100.0)
        resources = ResourceModel(architecture, n_samples=500)
        network = resources.network_resources()
        rows.append(
            [
                architecture.name,
                latency.average_norm_latency().cycles,
                latency.network_latency().cycles,
                latency.total_cycles(),
                network.luts,
                network.dsps,
                PAPER_TABLE3[("Network", architecture.name)]["dsp"],
            ]
        )
    print(
        format_table(
            ["Config", "AVG&NORM cycles", "Network cycles", "Total cycles",
             "Network LUT (est.)", "Network DSP (est.)", "Network DSP (paper)"],
            rows,
            float_format="{:.0f}",
        )
    )
    assignment = [arch.name for arch in default_student_assignment(5)]
    print(f"\nPer-qubit architecture assignment (paper Sec. III-D): {assignment}")


if __name__ == "__main__":
    main()
