"""The benchmarked deployment, its seeded inputs and the per-qubit oracle.

The deployment is the paper's five-qubit assignment: FNN-A (32-sample
averaging window, 31 features) on Q1/Q4/Q5 and FNN-B (5-sample window, 201
features) on Q2/Q3, 500-sample I/Q traces, Q16.16.  Its parameters are
fixed constants of the benchmark, independent of the workload seed, and are
written once as an artifact bundle before any timing starts.

Inputs are generated here with the benchmark's own NumPy code (never with
``repro.readout``), so a change to the program cannot change what the
benchmark feeds it.  The oracle chains the module objects of one
``FpgaStudentEmulator`` per qubit and never touches the engine under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import FixedPointBackend, ReadoutEngine
from repro.fpga.emulator import FpgaStudentEmulator
from repro.fpga.fixed_point import Q16_16
from repro.fpga.quantize import QuantizedStudentParameters

N_SAMPLES = 500
#: Averaging window per qubit: FNN-A on Q1/Q4/Q5, FNN-B on Q2/Q3.
WINDOWS = (32, 5, 5, 32, 32)
ARCH = {32: "fnn_a", 5: "fnn_b"}
N_QUBITS = len(WINDOWS)
#: Fixed seed of the model parameters; the workload seed never touches them.
PARAMETER_SEED = 2025
#: The second seed, held out from tuning, on which any claim must also hold.
HELD_OUT_SEED = 9001

_SCALE = float(1 << Q16_16.fractional_bits)
_MIN_RAW = -(1 << 31)
_MAX_RAW = (1 << 31) - 1


def _mean_trajectory(qubit: int, state: int) -> np.ndarray:
    """Noise-free resonator response ``(N_SAMPLES, 2)`` of one qubit state."""
    t = np.arange(N_SAMPLES, dtype=np.float64)
    ring_up = 1.0 - np.exp(-t / (40.0 + 10.0 * qubit))
    amplitude = 1.6 - 0.15 * qubit
    phase = 0.35 + 0.5 * qubit + (0.9 if state else -0.9)
    return amplitude * ring_up[:, None] * np.array([np.cos(phase), np.sin(phase)])


def build_parameters(qubit: int) -> QuantizedStudentParameters:
    """Fixed synthetic Q16.16 student for ``qubit`` (widths n -> 16 -> 8 -> 1)."""
    window = WINDOWS[qubit]
    rng = np.random.default_rng(PARAMETER_SEED + qubit)
    n_features = 2 * (N_SAMPLES // window) + 1
    widths = [n_features, 16, 8, 1]
    # The matched-filter envelope is the state-1 minus state-0 response, so
    # the MF feature carries the state, as a trained envelope would.
    envelope = (_mean_trajectory(qubit, 1) - _mean_trajectory(qubit, 0)) / N_SAMPLES
    # Small random weights everywhere, plus one strong path that carries the
    # matched-filter feature (the last input) through to the output logit, so
    # the served states split between 0 and 1 instead of saturating to one.
    weights = [rng.uniform(-0.05, 0.05, size=(widths[i], widths[i + 1])) for i in range(3)]
    weights[0][-1, :2] = (4.0, -4.0)
    weights[1][0, 0] = weights[1][1, 1] = 1.0
    weights[2][:2, 0] = (1.0, -1.0)
    return QuantizedStudentParameters(
        fmt=Q16_16,
        samples_per_interval=window,
        n_samples=N_SAMPLES,
        include_matched_filter=True,
        mf_envelope=Q16_16.to_raw(envelope),
        mf_threshold_raw=0,
        mf_scale_reciprocal_raw=int(Q16_16.to_raw(0.5)),
        average_reciprocal_raw=int(Q16_16.to_raw(1.0 / window)),
        norm_minimum=Q16_16.to_raw(rng.uniform(-2.5, -1.5, size=n_features - 1)),
        norm_shift_bits=rng.integers(-1, 3, size=n_features - 1),
        layer_weights=[Q16_16.to_raw(w) for w in weights],
        layer_biases=[
            Q16_16.to_raw(rng.uniform(-0.05, 0.05, size=widths[i + 1])) for i in range(3)
        ],
    )


def save_bundle(directory) -> None:
    """Write the deployment as an artifact bundle under ``directory``."""
    engine = ReadoutEngine([FixedPointBackend(build_parameters(q)) for q in range(N_QUBITS)])
    engine.save(directory)
    engine.close()


# --------------------------------------------------------------------------
# Seeded inputs (the benchmark's own generator)
# --------------------------------------------------------------------------


def synth_traces(rng: np.random.Generator, n_shots: int, qubits) -> np.ndarray:
    """Float I/Q traces ``(n_shots, len(qubits), N_SAMPLES, 2)``.

    Each shot draws a random state per qubit; excited shots relax to the
    ground response at a random time with probability 0.1, and white
    Gaussian noise is added on both quadratures.
    """
    qubits = list(qubits)
    out = np.empty((n_shots, len(qubits), N_SAMPLES, 2), dtype=np.float64)
    t = np.arange(N_SAMPLES)
    for column, qubit in enumerate(qubits):
        ground, excited = _mean_trajectory(qubit, 0), _mean_trajectory(qubit, 1)
        states = rng.integers(0, 2, size=n_shots)
        decay = rng.integers(0, N_SAMPLES, size=n_shots)
        decayed = (states == 1) & (rng.random(n_shots) < 0.1)
        decay[~decayed] = N_SAMPLES
        excited_mask = (t[None, :] < decay[:, None]) & (states[:, None] == 1)
        out[:, column] = np.where(excited_mask[:, :, None], excited, ground)
        # Column by column keeps the temporaries small, so the benchmark's
        # own set-up does not set the peak RSS the serving run reports.
        out[:, column] += rng.normal(0.0, 0.9, size=out[:, column].shape)
    return out


def adc(traces: np.ndarray) -> np.ndarray:
    """The capture ADC in the benchmark's own code: Q16.16, round, saturate, int32."""
    raw = np.rint(np.asarray(traces, dtype=np.float64) * _SCALE)
    return np.clip(raw, _MIN_RAW, _MAX_RAW).astype(np.int32)


# --------------------------------------------------------------------------
# The oracle: one emulator per qubit, module by module
# --------------------------------------------------------------------------


@dataclass
class Oracle:
    """Per-qubit reference answers computed through the emulator's modules."""

    emulators: list

    @classmethod
    def build(cls) -> "Oracle":
        return cls([FpgaStudentEmulator(build_parameters(q)) for q in range(N_QUBITS)])

    def states(self, carriers: np.ndarray) -> np.ndarray:
        """Reference states ``(shots, qubits)`` for a multiplexed batch.

        ``carriers`` holds raw integer samples or float traces, which pass
        through :func:`adc` first, one qubit column at a time.
        """
        out = np.empty(carriers.shape[:2], dtype=np.int64)
        for qubit, emulator in enumerate(self.emulators):
            column = carriers[:, qubit]
            if column.dtype.kind == "f":
                column = adc(column)
            out[:, qubit] = module_path(emulator, column)
        return out


def module_path(emulator, trace_raw: np.ndarray) -> np.ndarray:
    """States of one qubit by chaining the emulator's module objects."""
    features = [emulator.normalize.forward(emulator.average.forward(trace_raw))]
    mf = emulator.matched_filter.forward(trace_raw)
    features.append(np.asarray(mf, dtype=np.int64).reshape(-1, 1))
    activations = np.concatenate(features, axis=1)
    for layer in emulator.layers:
        activations = layer.forward(activations)
    return emulator.threshold.forward(activations.reshape(-1))
