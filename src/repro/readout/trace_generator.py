"""Single-shot trace synthesis.

:class:`TraceGenerator` produces single-qubit shots (used by unit tests and by
per-qubit calibration utilities); :class:`MultiplexedTraceGenerator` produces
whole-device shots for a joint computational state, including relaxation and
crosstalk, and is what the dataset builder uses.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.readout.physics import ReadoutPhysics
from repro.readout.preprocessing import digitize_traces

__all__ = ["CalibrationDrift", "TraceGenerator", "MultiplexedTraceGenerator"]


@dataclass(frozen=True)
class CalibrationDrift:
    """A parameterized calibration-drift schedule over a batch of shots.

    Models the slow analog-chain drift that degrades a deployed
    discriminator between recalibrations: a multiplicative amplitude drift
    and additive I/Q offset drifts, each ramping linearly from its
    ``start`` value at the first shot of a batch to its ``end`` value at
    the last.  Applying drifted shots to an engine trained on undrifted
    data reproduces the fidelity decay that motivates retraining and a
    hot swap (:meth:`repro.service.ReadoutService.swap_bundle`).

    Parameters
    ----------
    amplitude:
        ``(start, end)`` multiplicative gain applied to both quadratures
        (``(1.0, 1.0)`` = no amplitude drift).
    offset_i, offset_q:
        ``(start, end)`` additive offsets for the I and Q quadratures, in
        the same units as the traces (default: no offset drift).
    """

    amplitude: tuple[float, float] = (1.0, 1.0)
    offset_i: tuple[float, float] = (0.0, 0.0)
    offset_q: tuple[float, float] = (0.0, 0.0)

    def schedules(self, n_shots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-shot ``(gain, offset_i, offset_q)`` arrays, each ``(n_shots,)``."""
        if n_shots <= 0:
            raise ValueError(f"n_shots must be positive, got {n_shots}")
        gain = np.linspace(self.amplitude[0], self.amplitude[1], n_shots)
        off_i = np.linspace(self.offset_i[0], self.offset_i[1], n_shots)
        off_q = np.linspace(self.offset_q[0], self.offset_q[1], n_shots)
        return gain, off_i, off_q

    def apply(self, shots: np.ndarray) -> np.ndarray:
        """Return a drifted copy of ``shots``.

        ``shots`` is ``(n_shots, ..., 2)`` with the shot axis first and the
        I/Q quadrature axis last (both the single-qubit ``(n_shots,
        n_samples, 2)`` and the multiplexed ``(n_shots, n_qubits,
        n_samples, 2)`` layouts qualify); the schedule broadcasts over
        everything in between.
        """
        shots = np.asarray(shots, dtype=np.float64)
        if shots.ndim < 2 or shots.shape[-1] != 2:
            raise ValueError(
                f"expected a (n_shots, ..., 2) I/Q array, got shape {shots.shape}"
            )
        gain, off_i, off_q = self.schedules(shots.shape[0])
        shape = (shots.shape[0],) + (1,) * (shots.ndim - 2)
        offsets = np.stack([off_i, off_q], axis=-1).reshape(shape + (2,))
        return shots * gain.reshape(shape + (1,)) + offsets


class TraceGenerator:
    """Generates noisy single-qubit readout traces.

    Parameters
    ----------
    physics:
        Device description (qubit parameters + sampling configuration).
    seed:
        Seed for the internal random generator.
    include_relaxation:
        Model T1 decay of excited-state shots (on by default).
    """

    def __init__(
        self,
        physics: ReadoutPhysics,
        seed: int | None = None,
        include_relaxation: bool = True,
    ) -> None:
        self.physics = physics
        self.rng = np.random.default_rng(seed)
        self.include_relaxation = bool(include_relaxation)

    def generate(
        self,
        qubit_index: int,
        state: int,
        duration_ns: float,
        n_shots: int = 1,
        drift: CalibrationDrift | None = None,
    ) -> np.ndarray:
        """Generate ``n_shots`` traces for one qubit prepared in ``state``.

        Returns an array of shape ``(n_shots, n_samples, 2)`` (last axis I/Q).
        All random draws (relaxation times, amplifier noise) happen in bulk,
        so the cost per shot is a few vectorized NumPy operations rather than
        a Python-level loop iteration; the result is statistically identical
        to generating the shots one at a time.  ``drift`` applies a
        :class:`CalibrationDrift` schedule across the batch (shot 0 =
        schedule start, last shot = schedule end).
        """
        if state not in (0, 1):
            raise ValueError(f"state must be 0 or 1, got {state}")
        if n_shots <= 0:
            raise ValueError(f"n_shots must be positive, got {n_shots}")
        params = self.physics.qubits[qubit_index]
        times = self.physics.sample_times(duration_ns)
        trajectories = self.physics.mean_trajectories(qubit_index, duration_ns)
        ground, excited = trajectories[0], trajectories[1]

        if state == 1 and self.include_relaxation:
            decay_times = self.rng.exponential(params.t1, size=n_shots)
            decayed = times[None, :] >= decay_times[:, None]  # (n_shots, n_samples)
            shots = np.where(decayed[:, :, None], ground[None, :, :], excited[None, :, :])
        else:
            shots = np.repeat(trajectories[state][None, :, :], n_shots, axis=0)
        if params.noise_sigma > 0:
            shots = shots + self.rng.normal(0.0, params.noise_sigma, size=shots.shape)
        if drift is not None:
            shots = drift.apply(shots)
        return shots

    def generate_raw(
        self,
        qubit_index: int,
        state: int,
        duration_ns: float,
        n_shots: int = 1,
        fmt=None,
        drift: CalibrationDrift | None = None,
    ) -> np.ndarray:
        """Generate shots already digitized into raw integer ADC carriers.

        Same physics as :meth:`generate` (including the optional ``drift``
        schedule), followed by the capture-side ADC step
        (:func:`repro.readout.preprocessing.digitize_traces`) in the
        ``fmt`` fixed-point format (default Q16.16).  Returns ``(n_shots,
        n_samples, 2)`` in the format's compact carrier dtype (int32 for
        Q16.16) -- the form the raw serving entry points consume directly.
        """
        return digitize_traces(
            self.generate(qubit_index, state, duration_ns, n_shots=n_shots, drift=drift),
            fmt=fmt,
        )


class MultiplexedTraceGenerator:
    """Generates whole-device shots for a joint computational state.

    Each shot returns one trace per qubit; relaxation is sampled independently
    per excited qubit and multiplexing crosstalk mixes the state-dependent
    parts of all qubits' signals into every trace.

    Parameters
    ----------
    physics:
        Device description.
    seed:
        Seed for the internal random generator.
    include_relaxation, include_crosstalk:
        Toggles for the two correlated-error mechanisms (both on by default;
        ablation benchmarks switch them off to isolate their impact).
    """

    def __init__(
        self,
        physics: ReadoutPhysics,
        seed: int | None = None,
        include_relaxation: bool = True,
        include_crosstalk: bool = True,
    ) -> None:
        self.physics = physics
        self.rng = np.random.default_rng(seed)
        self.include_relaxation = bool(include_relaxation)
        self.include_crosstalk = bool(include_crosstalk)
        self._trajectory_cache: dict[float, np.ndarray] = {}

    def _mean_trajectories(self, duration_ns: float) -> np.ndarray:
        """Cached per-qubit mean trajectories ``(n_qubits, 2, n_samples, 2)``."""
        key = float(duration_ns)
        if key not in self._trajectory_cache:
            self._trajectory_cache[key] = np.stack(
                [
                    self.physics.mean_trajectories(q, duration_ns)
                    for q in range(self.physics.n_qubits)
                ],
                axis=0,
            )
        return self._trajectory_cache[key]

    def generate_shot(self, joint_state: np.ndarray, duration_ns: float) -> np.ndarray:
        """Generate one shot: an array ``(n_qubits, n_samples, 2)``.

        ``joint_state`` holds one 0/1 entry per qubit (Q1 first).  This is a
        thin wrapper over the vectorized :meth:`generate_shots` (batch of
        one), so both entry points share one code path and one noise model.
        """
        return self.generate_shots(joint_state, duration_ns, n_shots=1)[0]

    def generate_shots(
        self,
        joint_state: np.ndarray,
        duration_ns: float,
        n_shots: int,
        drift: CalibrationDrift | Sequence[CalibrationDrift] | None = None,
    ) -> np.ndarray:
        """Generate ``n_shots`` shots of the same joint state (vectorized).

        Returns ``(n_shots, n_qubits, n_samples, 2)``.  Statistically
        equivalent to calling :meth:`generate_shot` ``n_shots`` times but
        draws relaxation times and noise in bulk, which is what makes the
        32-permutation dataset builder fast enough for the benchmark harness.
        ``drift`` applies a :class:`CalibrationDrift` schedule across the
        batch, identically to every qubit (the analog chain drifts
        device-wide); pass a sequence of ``n_qubits`` drifts for per-qubit
        schedules instead.
        """
        if n_shots <= 0:
            raise ValueError(f"n_shots must be positive, got {n_shots}")
        joint_state = np.asarray(joint_state, dtype=np.int64).reshape(-1)
        n_qubits = self.physics.n_qubits
        if joint_state.shape[0] != n_qubits:
            raise ValueError(
                f"joint_state has {joint_state.shape[0]} entries for a {n_qubits}-qubit device"
            )
        if np.any((joint_state != 0) & (joint_state != 1)):
            raise ValueError(f"joint_state entries must be 0 or 1, got {joint_state}")

        times = self.physics.sample_times(duration_ns)
        n_samples = times.shape[0]
        trajectories = self._mean_trajectories(duration_ns)

        # Per-shot mean trajectories including relaxation switches.
        shots = np.empty((n_shots, n_qubits, n_samples, 2), dtype=np.float64)
        for q in range(n_qubits):
            params = self.physics.qubits[q]
            state = int(joint_state[q])
            mean = trajectories[q, state]
            if state == 1 and self.include_relaxation:
                decay_times = self.rng.exponential(params.t1, size=n_shots)
                decayed = times[None, :] >= decay_times[:, None]  # (n_shots, n_samples)
                per_shot = np.where(
                    decayed[:, :, None], trajectories[q, 0][None, :, :], mean[None, :, :]
                )
                shots[:, q] = per_shot
            else:
                shots[:, q] = mean[None, :, :]

        # Crosstalk: the leaked, state-dependent deviation is identical for
        # every shot of the same joint state, so compute it once.
        if self.include_crosstalk and n_qubits > 1:
            midpoints = trajectories.mean(axis=1)
            deviations = np.stack(
                [trajectories[q, int(joint_state[q])] - midpoints[q] for q in range(n_qubits)],
                axis=0,
            )
            for victim in range(n_qubits):
                coupling = self.physics.qubits[victim].crosstalk_coupling
                if coupling == 0.0:
                    continue
                aggressors = [q for q in range(n_qubits) if q != victim]
                leak = deviations[aggressors].mean(axis=0)
                shots[:, victim] += coupling * leak[None, :, :]

        # Amplifier noise, drawn in one call per qubit.
        for q in range(n_qubits):
            sigma = self.physics.qubits[q].noise_sigma
            if sigma > 0:
                shots[:, q] += self.rng.normal(0.0, sigma, size=(n_shots, n_samples, 2))

        if drift is not None:
            if isinstance(drift, CalibrationDrift):
                shots = drift.apply(shots)
            else:
                drifts = list(drift)
                if len(drifts) != n_qubits:
                    raise ValueError(
                        f"need one drift per qubit ({n_qubits}), got {len(drifts)}"
                    )
                for q, qubit_drift in enumerate(drifts):
                    shots[:, q] = qubit_drift.apply(shots[:, q])
        return shots

    def generate_shots_raw(
        self,
        joint_state: np.ndarray,
        duration_ns: float,
        n_shots: int,
        fmt=None,
        drift: CalibrationDrift | Sequence[CalibrationDrift] | None = None,
    ) -> np.ndarray:
        """Generate multiplexed shots already digitized into raw ADC carriers.

        Same physics as :meth:`generate_shots` (including the optional
        ``drift`` schedule), followed by the capture-side ADC step once for
        the whole batch (see
        :func:`repro.readout.preprocessing.digitize_traces`).  Returns
        ``(n_shots, n_qubits, n_samples, 2)`` integer carriers ready for a
        ``ReadoutRequest(raw=...)`` to
        :meth:`repro.engine.engine.ReadoutEngine.serve`.
        """
        return digitize_traces(
            self.generate_shots(joint_state, duration_ns, n_shots, drift=drift),
            fmt=fmt,
        )
