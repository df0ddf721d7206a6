"""Bit-accurate FPGA inference emulator for the student networks.

:class:`FpgaStudentEmulator` computes the datapath of Fig. 3 of the paper:

    raw trace -> [Average -> Normalize] + [Matched Filter] -> concat
              -> Dense(16)+ReLU -> Dense(8)+ReLU -> Dense(1) -> Threshold

Everything after the ADC is integer arithmetic in the configured fixed-point
format, so the emulator answers the question the hardware section of the
paper answers empirically: does Q16.16 inference reproduce the floating-point
student's decisions (and hence its fidelity)?

The serving entry points run one chunked kernel instead of chaining the
:mod:`repro.fpga.modules` blocks.  Each chunk of at most
:data:`_BATCH_CHUNK` shots is digitized (or copied, for raw carriers) into a
float64 *arena* of exact integers -- every in-range raw sample is an integer
of magnitude at most ``2**(w-1)``, and float64 holds every integer below
``2**53`` exactly.  The adder tree, the matched-filter MAC and the dense
layers then run as float64 BLAS products.  Such a product is exact in any
summation order whenever every operand and partial sum is an integer below
``2**53``; the emulator proves that per site at construction from the
worst-case accumulator bounds the modules already compute (``_mac_bound``)
and routes a site whose bound does not fit to its module's int64 (or exact
big-integer) arithmetic instead.  The small reduced results are converted to
int64 before the unchanged shift, bias, saturate and ReLU steps, so every
logit is bit-identical to the module chain, which stays the oracle the tests
and the repository benchmark compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.student import StudentModel
from repro.fpga.fixed_point import FixedPointFormat, Q16_16
from repro.fpga.modules import (
    AverageModule,
    DenseLayerModule,
    MatchedFilterModule,
    NormalizeModule,
    ThresholdModule,
)
from repro.fpga.quantize import QuantizedStudentParameters, quantize_student
from repro.nn.metrics import assignment_fidelity

__all__ = ["FpgaStudentEmulator", "AgreementReport"]

#: Shots per arena chunk.  256 shots of 500 I/Q samples make a 2 MB float64
#: arena, small enough to stay in cache between the ADC pass and the
#: reductions that read it.  Shots are independent, so chunked evaluation is
#: bit-identical to one-shot calls.
_BATCH_CHUNK = 256

#: float64 represents every integer of magnitude below this exactly, so a
#: sum or product of such integers whose every partial result stays below it
#: is computed without rounding, in any order.
_FLOAT64_EXACT = 1 << 53


@dataclass
class AgreementReport:
    """Comparison between the float student and its fixed-point emulation."""

    n_shots: int
    agreement: float
    float_fidelity: float
    fixed_fidelity: float
    max_logit_error: float

    def as_dict(self) -> dict:
        """Plain-dict view for JSON reports."""
        return {
            "n_shots": self.n_shots,
            "agreement": self.agreement,
            "float_fidelity": self.float_fidelity,
            "fixed_fidelity": self.fixed_fidelity,
            "max_logit_error": self.max_logit_error,
        }


class FpgaStudentEmulator:
    """Runs a quantized student network exactly as the PL datapath would.

    Parameters
    ----------
    parameters:
        Quantized constants produced by :func:`repro.fpga.quantize.quantize_student`.
    """

    def __init__(self, parameters: QuantizedStudentParameters) -> None:
        self.parameters = parameters
        fmt = parameters.fmt
        self.fmt = fmt
        # The narrowest dtype that holds a raw sample (int32 for Q16.16): the
        # recommended storage for digitized traces.
        self.carrier_dtype = fmt.raw_carrier_dtype
        self.average = AverageModule(
            fmt, parameters.samples_per_interval, parameters.average_reciprocal_raw
        )
        self.normalize = NormalizeModule(fmt, parameters.norm_minimum, parameters.norm_shift_bits)
        if parameters.include_matched_filter:
            self.matched_filter = MatchedFilterModule(
                fmt,
                parameters.mf_envelope,
                parameters.mf_threshold_raw,
                parameters.mf_scale_reciprocal_raw,
            )
        else:
            self.matched_filter = None
        self.layers = []
        n_layers = parameters.n_layers
        for index, (weights, biases) in enumerate(
            zip(parameters.layer_weights, parameters.layer_biases)
        ):
            relu = index < n_layers - 1
            self.layers.append(DenseLayerModule(fmt, weights, biases, relu=relu))
        self.threshold = ThresholdModule()
        self._plan_float64_routes()

    def _plan_float64_routes(self) -> None:
        """Decide once, per site, which sums the float64 arena may compute.

        A site takes the float64 route only when every operand and partial
        sum it can produce is an integer below :data:`_FLOAT64_EXACT`:

        * the arena itself holds in-range samples, ``|x| <= 2**(w-1)``, so it
          is float64 only for word lengths up to 53 bits (int64 otherwise);
        * adder tree: ``|sum| <= S * 2**(w-1)`` for an ``S``-sample window;
        * matched filter: the module's ``_mac_bound`` (``sum|envelope| *
          2**(w-1)``) bounds every partial sum of the MAC;
        * dense layers: the module's ``_mac_bound`` assumes in-range inputs,
          which holds for the hidden layers (saturated, ReLU'd outputs) but
          not for the first one -- normalized features ``x - x_min`` reach
          ``2**w`` -- so its bound is doubled.

        A site whose bound does not fit keeps its module's arithmetic.
        """
        fmt = self.fmt
        window = self.average.samples_per_interval
        in_range = 1 << (fmt.word_length - 1)
        float_arena = fmt.word_length <= 53
        self._arena_dtype = np.dtype(np.float64 if float_arena else np.int64)
        # The window-sum route also scales with the fast multiply, which the
        # module reserves for windows inside the multiply's guard headroom.
        self._sums_in_float64 = (
            float_arena
            and window * in_range < _FLOAT64_EXACT
            and (window == 1 or self.average._scale_exactly)
        )
        self._sum_matrix = self.average._sum_matrix.astype(np.float64)
        mf = self.matched_filter
        self._envelope = None
        if mf is not None and float_arena and mf._mac_bound < _FLOAT64_EXACT:
            self._envelope = mf.envelope_raw.reshape(-1).astype(np.float64)
        self._weights = [
            layer.weights_raw.astype(np.float64)
            if (2 if index == 0 else 1) * layer._mac_bound < _FLOAT64_EXACT
            else None
            for index, layer in enumerate(self.layers)
        ]
        # NumPy scalars: np.clip checks Python-int bounds against the dtype
        # on every call, which dominates the clip of a one-shot chunk.
        self._min_raw, self._max_raw = np.int64(fmt.min_raw), np.int64(fmt.max_raw)
        # Module fallbacks for the trace-wide sites read an int64 arena.
        self._needs_int_arena = not self._sums_in_float64 or (
            mf is not None and self._envelope is None
        )

    @classmethod
    def from_student(
        cls, student: StudentModel, fmt: FixedPointFormat = Q16_16
    ) -> "FpgaStudentEmulator":
        """Quantize a trained student and build its emulator in one step."""
        return cls(quantize_student(student, fmt))

    # ---------------------------------------------------------------- datapath
    def _check_traces(self, carrier: np.ndarray) -> None:
        """The trace-shape errors of the modules the kernel replaces."""
        if carrier.ndim != 3 or carrier.shape[-1] != 2:
            raise ValueError(
                f"trace_raw must have shape (shots, samples, 2), got {carrier.shape}"
            )
        n_samples = carrier.shape[1]
        window = self.average.samples_per_interval
        if n_samples < window:
            raise ValueError(f"{n_samples}-sample trace cannot fill a {window}-sample window")
        if self.matched_filter is not None:
            n_envelope = self.matched_filter.envelope_raw.shape[0]
            if n_samples < n_envelope:
                raise ValueError(
                    f"Trace has {n_samples} samples but the envelope needs {n_envelope}"
                )

    def _run(self, carrier: np.ndarray, stage, width: int) -> np.ndarray:
        """Apply ``stage`` to ``carrier`` one arena chunk at a time.

        ``carrier`` is a float trace batch or an integer raw carrier,
        ``(shots, samples, 2)`` or one ``(samples, 2)`` trace; ``stage`` maps
        a filled arena chunk to ``width`` int64 values per shot.  The arena
        is allocated per call and never stored on the emulator: the engine's
        per-qubit fan-out and concurrent ``serve`` calls share emulators
        across threads.
        """
        single = carrier.ndim == 2
        if single:
            carrier = carrier[None]
        self._check_traces(carrier)
        n_shots = carrier.shape[0]
        out = np.empty((n_shots, width), dtype=np.int64)
        arena = np.empty(
            (min(n_shots, _BATCH_CHUNK), *carrier.shape[1:]), dtype=self._arena_dtype
        )
        for start in range(0, n_shots, _BATCH_CHUNK):
            stop = min(start + _BATCH_CHUNK, n_shots)
            chunk = arena[: stop - start]
            may_be_nan = self._fill_arena(carrier[start:stop], chunk)
            out[start:stop] = stage(chunk, may_be_nan)
        return out[0] if single else out

    def _fill_arena(self, carrier: np.ndarray, arena: np.ndarray) -> bool:
        """Digitize or copy one chunk into the arena; True if NaN may remain.

        Float traces go through the ADC: ``rint(x * 2**f)`` saturated to the
        word length -- the definition :meth:`FixedPointFormat.to_raw` (and so
        :func:`repro.readout.preprocessing.digitize_traces`) applies.  The
        scale is a power of two, so the multiply is exact and ``rint`` is the
        one rounding step.  NaN survives ``clip``; the caller maps it to
        ``min_raw`` as ``to_raw`` does, once it shows in a reduced result.
        Raw carriers are copied (exact: the float arena exists only for word
        lengths up to 53 bits) and saturated unless their dtype cannot leave
        the range; an int64 sample beyond ``2**53`` rounds on the copy but
        stays beyond the rail it saturates to.
        """
        fmt = self.fmt
        if carrier.dtype.kind == "f":
            if arena.dtype.kind == "i":
                arena[...] = fmt.to_raw(carrier)
                return False
            np.multiply(carrier, fmt.scale, out=arena)
            np.rint(arena, out=arena)
            np.clip(arena, fmt.min_raw, fmt.max_raw, out=arena)
            return True
        arena[...] = carrier
        if carrier.dtype.itemsize * 8 > fmt.word_length:
            np.clip(arena, fmt.min_raw, fmt.max_raw, out=arena)
        return False

    def _reduce_arena(self, arena: np.ndarray) -> tuple:
        """Float64 window sums and MF accumulators of the sites routed to it.

        Exact: :meth:`_plan_float64_routes` admits a site only when all of
        its operands and partial sums are integers below ``2**53``.  Returns
        ``None`` for a site that keeps its module arithmetic.
        """
        sums = score = None
        n_shots = arena.shape[0]
        if self._sums_in_float64:
            window = self.average.samples_per_interval
            n_intervals = arena.shape[1] // window
            usable = arena[:, : n_intervals * window]
            # The module's rule: reduceat has per-segment overhead, so with
            # many windows a product with the 0/1 summing matrix wins.
            if n_intervals > 64:
                sums = usable.reshape(n_shots * n_intervals, -1) @ self._sum_matrix
            else:
                boundaries = np.arange(0, usable.shape[1], window)
                sums = np.add.reduceat(usable, boundaries, axis=1)
            sums = sums.reshape(n_shots, -1)
        if self._envelope is not None:
            n_envelope = self.matched_filter.envelope_raw.shape[0]
            score = arena[:, :n_envelope].reshape(n_shots, -1) @ self._envelope
        return sums, score

    @staticmethod
    def _exact_product(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``inputs @ weights`` of a dense site admitted to the float64 route."""
        return (inputs.astype(np.float64) @ weights).astype(np.int64)

    def _features_chunk(self, arena: np.ndarray, may_be_nan: bool) -> np.ndarray:
        """Raw student input vectors ``(shots, features)`` of one arena chunk."""
        fmt = self.fmt
        ints = None
        if self._needs_int_arena:
            # A module fallback reads an int64 copy, and NaN has no defined
            # int64 cast, so map it first (as to_raw does) on this route.
            if may_be_nan:
                np.fmax(arena, fmt.min_raw, out=arena)
                may_be_nan = False
            ints = arena.astype(np.int64, copy=False)
        sums, score = self._reduce_arena(arena)
        # NaN reaches every sum it feeds, so checking the small reduced
        # arrays replaces a pass over the whole arena.
        if may_be_nan and any(np.isnan(x).any() for x in (sums, score) if x is not None):
            np.fmax(arena, fmt.min_raw, out=arena)
            sums, score = self._reduce_arena(arena)
        if sums is None:
            averaged = self.average.forward(ints)
        else:
            averaged = sums.astype(np.int64)
            if self.average.samples_per_interval > 1:
                averaged = fmt.multiply(averaged, np.int64(self.average.reciprocal_raw))
        blocks = [self.normalize.forward(averaged)]
        mf = self.matched_filter
        if mf is not None:
            if score is None:
                scaled = mf.forward(ints)
            else:
                scores = score.astype(np.int64)
                scores >>= fmt.fractional_bits
                np.clip(scores, self._min_raw, self._max_raw, out=scores)
                scores -= mf.threshold_raw
                scaled = fmt.multiply(scores, np.int64(mf.scale_reciprocal_raw))
            blocks.append(scaled.reshape(-1, 1))
        return np.concatenate(blocks, axis=1)

    def _logits_chunk(self, arena: np.ndarray, may_be_nan: bool) -> np.ndarray:
        """Raw output logits ``(shots, outputs)`` of one arena chunk."""
        fmt = self.fmt
        activations = self._features_chunk(arena, may_be_nan)
        for layer, weights in zip(self.layers, self._weights):
            if weights is None:
                activations = layer.forward(activations)
                continue
            activations = self._exact_product(activations, weights)
            activations >>= fmt.fractional_bits
            activations += layer.biases_raw
            # Saturate, then ReLU: one clip whose floor is 0 for ReLU layers.
            floor = np.int64(0) if layer.relu else self._min_raw
            np.clip(activations, floor, self._max_raw, out=activations)
        return activations

    def _n_features(self) -> int:
        return self.normalize.minimum_raw.shape[0] + (self.matched_filter is not None)

    def _n_outputs(self) -> int:
        return self.layers[-1].n_neurons if self.layers else self._n_features()

    def _features(self, carrier: np.ndarray) -> np.ndarray:
        return self._run(carrier, self._features_chunk, self._n_features())

    def _logits(self, carrier: np.ndarray) -> np.ndarray:
        return self._run(carrier, self._logits_chunk, self._n_outputs()).reshape(-1)

    @staticmethod
    def _as_raw_carrier(trace_raw: np.ndarray) -> np.ndarray:
        trace_raw = np.asarray(trace_raw)
        if trace_raw.dtype.kind != "i":
            trace_raw = trace_raw.astype(np.int64)
        return trace_raw

    def features_from_raw(self, trace_raw: np.ndarray) -> np.ndarray:
        """Raw student input vectors from already-digitized raw traces.

        Everything after the ADC.  Inputs are saturated to the word length
        first, exactly as the ADC capture register would, so absurd int64
        samples saturate instead of wrapping.
        """
        return self._features(self._as_raw_carrier(trace_raw))

    def features_raw(self, traces: np.ndarray) -> np.ndarray:
        """Raw fixed-point student input vectors (averaged+normalized I/Q, MF)."""
        return self._features(np.asarray(traces, dtype=np.float64))

    def predict_logits_from_raw(self, trace_raw: np.ndarray) -> np.ndarray:
        """Raw output logits from already-digitized raw traces (no ADC rounding).

        Accepts int32 or int64 carriers (int32 is the recommended storage for
        Q16.16: raw samples fit it exactly and it halves the bytes copied into
        the arena); both produce bit-identical logits, and out-of-range int64
        samples saturate.  Batches larger than :data:`_BATCH_CHUNK` are
        processed chunk by chunk; the result is bit-identical either way.
        """
        return self._logits(self._as_raw_carrier(trace_raw))

    def predict_logits_raw(self, traces: np.ndarray) -> np.ndarray:
        """Raw fixed-point output logits for a batch of traces.

        The float-to-raw ADC conversion runs chunk by chunk inside the arena,
        so large batches never materialize a full-size raw temporary.
        """
        return self._logits(np.asarray(traces, dtype=np.float64))

    def predict_logits(self, traces: np.ndarray) -> np.ndarray:
        """Output logits converted back to real values (for comparison plots)."""
        return self.fmt.from_raw(self.predict_logits_raw(traces))

    def predict_states(self, traces: np.ndarray) -> np.ndarray:
        """Hard 0/1 assignments from the fixed-point datapath."""
        return self.threshold.forward(self.predict_logits_raw(traces))

    def fidelity(self, traces: np.ndarray, labels: np.ndarray) -> float:
        """Assignment fidelity of the emulated hardware on a labelled set."""
        return assignment_fidelity(self.predict_states(traces), labels, threshold=0.5)

    # -------------------------------------------------------------- comparison
    def agreement_with_float(
        self, student: StudentModel, traces: np.ndarray, labels: np.ndarray | None = None
    ) -> AgreementReport:
        """Compare the emulator's decisions with the float student's.

        Parameters
        ----------
        student:
            The float model the emulator was quantized from.
        traces:
            Evaluation traces ``(n_shots, n_samples, 2)``.
        labels:
            Optional ground-truth states; if given, both fidelities are
            reported (otherwise they are NaN and only the agreement matters).
        """
        float_logits = student.predict_logits(traces)
        fixed_logits = self.predict_logits(traces)
        float_states = (float_logits >= 0.0).astype(np.int64)
        fixed_states = (fixed_logits >= 0.0).astype(np.int64)
        agreement = float(np.mean(float_states == fixed_states))
        if labels is not None:
            float_fidelity = assignment_fidelity(float_logits, labels, threshold=0.0)
            fixed_fidelity = assignment_fidelity(fixed_logits, labels, threshold=0.0)
        else:
            float_fidelity = float("nan")
            fixed_fidelity = float("nan")
        return AgreementReport(
            n_shots=int(traces.shape[0]),
            agreement=agreement,
            float_fidelity=float(float_fidelity),
            fixed_fidelity=float(fixed_fidelity),
            max_logit_error=float(np.max(np.abs(float_logits - fixed_logits))),
        )
