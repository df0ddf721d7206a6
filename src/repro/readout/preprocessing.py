"""Input preprocessing for the student networks.

Sec. III-B of the paper reduces the raw trace to a compact student input in
two steps:

1. **Interval averaging** -- the I and Q samples are averaged over windows of
   a fixed number of samples (32 samples = 64 ns for FNN-A qubits, 5 samples
   = 10 ns for FNN-B qubits), collapsing a 500-sample quadrature into 15 or
   100 values.
2. **Matched-filter feature** -- the scalar MF projection of the full trace is
   appended, yielding 31- or 201-dimensional inputs.

On the FPGA the averaged values are normalized with ``(x - x_min) / sigma_x``
where ``sigma_x`` is rounded to a power of two so the division becomes a
bit-shift (Sec. IV).  :class:`ShiftNormalizer` reproduces that behaviour
bit-for-bit so the float pipeline and the fixed-point emulator agree.
"""

from __future__ import annotations

import numpy as np

from repro.readout.matched_filter import MatchedFilter, train_matched_filter

__all__ = [
    "digitize_traces",
    "interval_average",
    "averaged_feature_dimension",
    "ShiftNormalizer",
    "StudentFeatureExtractor",
]


def digitize_traces(traces: np.ndarray, fmt=None) -> np.ndarray:
    """The capture-side ADC step: float I/Q traces to raw integer carriers.

    Converts ``traces`` (any shape ending in I/Q samples) to the raw
    fixed-point representation of ``fmt`` (default Q16.16) -- round to
    nearest, saturate to the word length -- and returns them in the format's
    compact carrier dtype (int32 for word lengths up to 32 bits).  This is
    exactly the conversion the FPGA's capture register performs and exactly
    what :class:`repro.fpga.emulator.FpgaStudentEmulator` applies internally
    to float traces, so a pipeline that digitizes once here and serves the
    carriers as a raw request (``ReadoutRequest(raw=...)`` to
    :meth:`repro.engine.engine.ReadoutEngine.serve`) is
    bit-identical to one serving the original float traces -- minus the
    per-call float round-trip.
    """
    if fmt is None:
        # Imported lazily: repro.fpga depends on repro.core.student, which
        # imports this module -- a module-level import would be circular.
        from repro.fpga.fixed_point import Q16_16

        fmt = Q16_16
    traces = np.asarray(traces, dtype=np.float64)
    return fmt.to_raw(traces).astype(fmt.raw_carrier_dtype, copy=False)


def interval_average(traces: np.ndarray, samples_per_interval: int) -> np.ndarray:
    """Average I/Q samples over consecutive intervals.

    Parameters
    ----------
    traces:
        ``(n_samples, 2)`` or ``(n_shots, n_samples, 2)``.
    samples_per_interval:
        Number of ADC samples per averaging window (32 for FNN-A, 5 for
        FNN-B at the paper's 2 ns sample period).  Any trailing samples that
        do not fill a complete window are dropped, matching the paper's
        15-interval result for 500 samples / 32.

    Returns
    -------
    ndarray
        ``(..., n_intervals, 2)`` of averaged I/Q values.
    """
    if samples_per_interval <= 0:
        raise ValueError(f"samples_per_interval must be positive, got {samples_per_interval}")
    traces = np.asarray(traces, dtype=np.float64)
    single = traces.ndim == 2
    if single:
        traces = traces[None, ...]
    if traces.ndim != 3 or traces.shape[-1] != 2:
        raise ValueError(f"traces must have shape (..., n_samples, 2), got {traces.shape}")
    n_samples = traces.shape[1]
    n_intervals = n_samples // samples_per_interval
    if n_intervals == 0:
        raise ValueError(
            f"Traces of {n_samples} samples cannot be averaged in windows of "
            f"{samples_per_interval}"
        )
    usable = n_intervals * samples_per_interval
    windows = traces[:, :usable, :].reshape(traces.shape[0], n_intervals, samples_per_interval, 2)
    averaged = windows.mean(axis=2)
    return averaged[0] if single else averaged


def averaged_feature_dimension(n_samples: int, samples_per_interval: int) -> int:
    """Length of the flattened averaged-I/Q feature vector (without the MF scalar).

    ``2 * floor(n_samples / samples_per_interval)`` -- e.g. 30 for 500 samples
    averaged in windows of 32, or 200 for windows of 5, matching the paper's
    student input sizes of 31 and 201 once the MF feature is appended.
    """
    if n_samples <= 0 or samples_per_interval <= 0:
        raise ValueError("n_samples and samples_per_interval must be positive")
    intervals = n_samples // samples_per_interval
    if intervals == 0:
        raise ValueError(
            f"{n_samples} samples cannot fill a window of {samples_per_interval}"
        )
    return 2 * intervals


class ShiftNormalizer:
    """FPGA-friendly normalization ``(x - x_min) / sigma`` with power-of-two sigma.

    Parameters are estimated from training data with :meth:`fit`.  When
    ``power_of_two`` is True (the FPGA configuration) each feature's standard
    deviation is rounded *up* to the nearest power of two so the division can
    be implemented as a right shift; rounding up (rather than to nearest)
    guarantees the normalized magnitude never grows, which is the overflow
    -safety property the paper relies on.
    """

    def __init__(self, power_of_two: bool = True, epsilon: float = 1e-9) -> None:
        self.power_of_two = bool(power_of_two)
        self.epsilon = float(epsilon)
        self.minimum: np.ndarray | None = None
        self.scale: np.ndarray | None = None
        self.shift_bits: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.minimum is not None

    def fit(self, features: np.ndarray) -> "ShiftNormalizer":
        """Estimate per-feature minimum and (power-of-two) scale from training data."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D (shots, features), got {features.shape}")
        if features.shape[0] < 2:
            raise ValueError("Need at least two shots to estimate normalization statistics")
        self.minimum = features.min(axis=0)
        std = features.std(axis=0)
        std = np.maximum(std, self.epsilon)
        if self.power_of_two:
            bits = np.ceil(np.log2(std)).astype(np.int64)
            self.shift_bits = bits
            self.scale = np.power(2.0, bits)
        else:
            self.shift_bits = None
            self.scale = std
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Apply the fitted normalization."""
        if not self.is_fitted:
            raise RuntimeError("ShiftNormalizer.transform() called before fit()")
        features = np.asarray(features, dtype=np.float64)
        return (features - self.minimum) / self.scale

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        """Convenience: fit on ``features`` then transform them."""
        return self.fit(features).transform(features)

    def state_dict(self) -> dict:
        """Parameters needed by the FPGA emulator (min, scale, shift bits)."""
        if not self.is_fitted:
            raise RuntimeError("ShiftNormalizer.state_dict() called before fit()")
        return {
            "minimum": self.minimum.copy(),
            "scale": self.scale.copy(),
            "shift_bits": None if self.shift_bits is None else self.shift_bits.copy(),
            "power_of_two": self.power_of_two,
        }


class StudentFeatureExtractor:
    """Builds the student-network input: averaged I/Q values plus the MF scalar.

    This object encapsulates everything Sec. III-B describes, so training code
    and the FPGA emulator share one definition of the input representation.

    Parameters
    ----------
    samples_per_interval:
        Averaging window in samples (32 for FNN-A qubits, 5 for FNN-B).
    include_matched_filter:
        Append the MF scalar (True in the paper; the ablation benchmark turns
        it off).
    normalize:
        Apply :class:`ShiftNormalizer` to the averaged I/Q block.  The MF
        scalar is normalized by its own training-set standard deviation so a
        single feature cannot dominate the first dense layer.
    power_of_two_norm:
        Use the FPGA power-of-two scaling inside the normalizer.
    """

    def __init__(
        self,
        samples_per_interval: int,
        include_matched_filter: bool = True,
        normalize: bool = True,
        power_of_two_norm: bool = True,
    ) -> None:
        if samples_per_interval <= 0:
            raise ValueError(f"samples_per_interval must be positive, got {samples_per_interval}")
        self.samples_per_interval = int(samples_per_interval)
        self.include_matched_filter = bool(include_matched_filter)
        self.normalize = bool(normalize)
        self.power_of_two_norm = bool(power_of_two_norm)
        self.matched_filter: MatchedFilter | None = None
        self.normalizer: ShiftNormalizer | None = None
        self.mf_scale: float | None = None
        self.mf_offset: float | None = None
        self._n_samples: int | None = None

    # ------------------------------------------------------------------ fitting
    def fit(self, traces: np.ndarray, labels: np.ndarray, sample_period_ns: float | None = None) -> "StudentFeatureExtractor":
        """Fit the matched filter and normalization statistics on training shots."""
        traces = np.asarray(traces, dtype=np.float64)
        if traces.ndim != 3 or traces.shape[-1] != 2:
            raise ValueError(f"traces must have shape (n_shots, n_samples, 2), got {traces.shape}")
        self._n_samples = traces.shape[1]
        if self.include_matched_filter:
            self.matched_filter = train_matched_filter(
                traces, labels, sample_period_ns=sample_period_ns
            )
        averaged = self._averaged_block(traces)
        if self.normalize:
            self.normalizer = ShiftNormalizer(power_of_two=self.power_of_two_norm).fit(averaged)
        if self.include_matched_filter:
            scores = self.matched_filter.apply(traces)
            std = float(np.std(scores))
            self.mf_scale = std if std > 0 else 1.0
            self.mf_offset = float(self.matched_filter.threshold)
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._n_samples is not None

    # ----------------------------------------------------------------- features
    def _averaged_block(self, traces: np.ndarray) -> np.ndarray:
        averaged = interval_average(traces, self.samples_per_interval)
        return averaged.reshape(averaged.shape[0], -1)

    def transform(self, traces: np.ndarray) -> np.ndarray:
        """Map traces ``(n_shots, n_samples, 2)`` to student input vectors."""
        if not self.is_fitted:
            raise RuntimeError("StudentFeatureExtractor.transform() called before fit()")
        traces = np.asarray(traces, dtype=np.float64)
        single = traces.ndim == 2
        if single:
            traces = traces[None, ...]
        if traces.shape[1] != self._n_samples:
            raise ValueError(
                f"Extractor was fitted on {self._n_samples}-sample traces but received "
                f"{traces.shape[1]}-sample traces; refit for the new duration"
            )
        averaged = self._averaged_block(traces)
        if self.normalize:
            averaged = self.normalizer.transform(averaged)
        blocks = [averaged]
        if self.include_matched_filter:
            scores = self.matched_filter.apply(traces)
            normalized_scores = (scores - self.mf_offset) / self.mf_scale
            blocks.append(normalized_scores[:, None])
        features = np.concatenate(blocks, axis=1)
        return features[0] if single else features

    def fit_transform(
        self, traces: np.ndarray, labels: np.ndarray, sample_period_ns: float | None = None
    ) -> np.ndarray:
        """Convenience: :meth:`fit` then :meth:`transform` on the same traces."""
        return self.fit(traces, labels, sample_period_ns=sample_period_ns).transform(traces)

    @property
    def feature_dimension(self) -> int:
        """Dimensionality of the produced feature vectors.

        31 for the paper's FNN-A configuration (15 averaged I/Q pairs + MF)
        and 201 for FNN-B (100 pairs + MF) at 500-sample traces.
        """
        if not self.is_fitted:
            raise RuntimeError("feature_dimension is only defined after fit()")
        base = averaged_feature_dimension(self._n_samples, self.samples_per_interval)
        return base + (1 if self.include_matched_filter else 0)

    # -------------------------------------------------------------- persistence
    def state_dict(self) -> dict:
        """Everything needed to rebuild this fitted extractor bit-exactly.

        Arrays are returned as-is (float64/int64); scalars are plain Python
        values, so the whole dict survives a JSON+``.npz`` round trip without
        loss (see :mod:`repro.engine.bundle`).
        """
        if not self.is_fitted:
            raise RuntimeError("StudentFeatureExtractor.state_dict() called before fit()")
        state: dict = {
            "samples_per_interval": self.samples_per_interval,
            "include_matched_filter": self.include_matched_filter,
            "normalize": self.normalize,
            "power_of_two_norm": self.power_of_two_norm,
            "n_samples": int(self._n_samples),
        }
        if self.normalize and self.normalizer is not None:
            norm = self.normalizer.state_dict()
            state["norm_minimum"] = norm["minimum"]
            state["norm_scale"] = norm["scale"]
            state["norm_shift_bits"] = norm["shift_bits"]
        if self.include_matched_filter:
            state["mf_envelope"] = self.matched_filter.envelope.copy()
            state["mf_threshold"] = float(self.matched_filter.threshold)
            state["mf_sample_period_ns"] = self.matched_filter.sample_period_ns
            state["mf_scale"] = float(self.mf_scale)
            state["mf_offset"] = float(self.mf_offset)
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "StudentFeatureExtractor":
        """Rebuild a fitted extractor from :meth:`state_dict` output."""
        extractor = cls(
            samples_per_interval=int(state["samples_per_interval"]),
            include_matched_filter=bool(state["include_matched_filter"]),
            normalize=bool(state["normalize"]),
            power_of_two_norm=bool(state["power_of_two_norm"]),
        )
        extractor._n_samples = int(state["n_samples"])
        if extractor.normalize:
            normalizer = ShiftNormalizer(power_of_two=extractor.power_of_two_norm)
            normalizer.minimum = np.asarray(state["norm_minimum"], dtype=np.float64)
            normalizer.scale = np.asarray(state["norm_scale"], dtype=np.float64)
            shift_bits = state.get("norm_shift_bits")
            normalizer.shift_bits = (
                None if shift_bits is None else np.asarray(shift_bits, dtype=np.int64)
            )
            extractor.normalizer = normalizer
        if extractor.include_matched_filter:
            extractor.matched_filter = MatchedFilter(
                np.asarray(state["mf_envelope"], dtype=np.float64),
                threshold=float(state["mf_threshold"]),
                sample_period_ns=state.get("mf_sample_period_ns"),
            )
            extractor.mf_scale = float(state["mf_scale"])
            extractor.mf_offset = float(state["mf_offset"])
        return extractor
