"""The emulator's fused float64 kernel equals the per-qubit module chain.

:class:`FpgaStudentEmulator` serves through one chunked kernel over a
float64 arena of exact integers, routing each adder-tree, matched-filter and
dense site to a float64 BLAS product only when its worst-case partial sums
stay below ``2**53``.  The :mod:`repro.fpga.modules` blocks, chained one
after the other on the saturated raw carrier, are the oracle: the property
below draws architectures, formats, weight scales on both sides of each
site's gate, chunk sizes and hostile carriers, and requires every raw
feature and logit to match bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fpga import emulator as emulator_module
from repro.fpga.emulator import FpgaStudentEmulator
from repro.fpga.fixed_point import FixedPointFormat, Q16_16
from repro.fpga.quantize import QuantizedStudentParameters

FLOAT64_EXACT = 1 << 53

FORMATS = {"q16_16": Q16_16, "q8_8": FixedPointFormat(integer_bits=8, fractional_bits=8)}

#: Fixed example sequence and no example database, so the property runs the
#: same cases on every host and stays part of the tier-1 suite.
DETERMINISTIC = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def module_chain(emulator: FpgaStudentEmulator, raw: np.ndarray):
    """Features and logits of saturated raw traces, module by module."""
    blocks = [emulator.normalize.forward(emulator.average.forward(raw))]
    if emulator.matched_filter is not None:
        blocks.append(emulator.matched_filter.forward(raw).reshape(-1, 1))
    features = np.concatenate(blocks, axis=1)
    activations = features
    for layer in emulator.layers:
        activations = layer.forward(activations)
    return features, activations.reshape(-1)


def saturated(fmt: FixedPointFormat, carrier: np.ndarray) -> np.ndarray:
    """What the ADC capture register holds for ``carrier``."""
    if carrier.dtype.kind == "f":
        return fmt.to_raw(carrier)
    return np.clip(carrier.astype(np.int64), fmt.min_raw, fmt.max_raw)


def site_weights(rng, shape, fan_in: int, input_bound: int, above: bool) -> np.ndarray:
    """Raw weights whose MAC bound sits on one side of 2**53.

    ``input_bound`` is the largest input magnitude the site can see.  Below:
    each of the ``fan_in`` products feeding one sum is at most
    ``(2**53 - 1) / fan_in``.  Above: the first row alone pushes every sum's
    bound past ``2**53``.
    """
    limit = (FLOAT64_EXACT - 1) // (input_bound * fan_in)
    weights = rng.integers(-limit, limit + 1, size=shape)
    if above:
        weights[0] = FLOAT64_EXACT // input_bound + 1
    return weights


def build_parameters(rng, fmt, window, n_intervals, extra, with_mf, mf_above, dense_above):
    n_samples = n_intervals * window + extra
    n_features = 2 * n_intervals + with_mf
    widths = [n_features, int(rng.integers(1, 7)), int(rng.integers(1, 5)), 1]
    in_range = 1 << (fmt.word_length - 1)
    # Normalized features reach 2**w, so the first layer's inputs do too.
    input_bounds = [2 * in_range, in_range, in_range]
    weights = [
        site_weights(
            rng, (widths[i], widths[i + 1]), widths[i], input_bounds[i], dense_above[i]
        )
        for i in range(3)
    ]
    envelope = None
    if with_mf:
        envelope = site_weights(rng, (n_samples, 2), 2 * n_samples, in_range, mf_above)

    def in_range_raw(size=None):
        return rng.integers(fmt.min_raw, fmt.max_raw + 1, size=size)

    return QuantizedStudentParameters(
        fmt=fmt,
        samples_per_interval=window,
        n_samples=n_samples,
        include_matched_filter=with_mf,
        mf_envelope=envelope,
        mf_threshold_raw=int(in_range_raw()),
        mf_scale_reciprocal_raw=int(rng.integers(0, fmt.scale)),
        average_reciprocal_raw=int(fmt.to_raw(1.0 / window)),
        norm_minimum=in_range_raw(2 * n_intervals),
        norm_shift_bits=rng.integers(-3, 5, size=2 * n_intervals),
        layer_weights=weights,
        layer_biases=[in_range_raw(widths[i + 1]) for i in range(3)],
    )


def hostile_carrier(rng, fmt, kind: str, shape) -> np.ndarray:
    """Mostly in-range samples plus saturation edges (and NaN for floats)."""
    mask = rng.random(shape) < 0.05
    if kind == "float":
        carrier = rng.uniform(-1.2, 1.2, size=shape) * fmt.max_value
        specials = np.array(
            [np.nan, np.inf, -np.inf, 1e15, -1e15, 1e300, fmt.max_value, fmt.min_value]
        )
        carrier[mask] = rng.choice(specials, size=int(mask.sum()))
        return carrier
    if kind == "int32":
        info = np.iinfo(np.int32)
        carrier = rng.integers(fmt.min_raw, fmt.max_raw + 1, size=shape).astype(np.int32)
        specials = np.array([info.min, info.max, fmt.min_raw, fmt.max_raw], dtype=np.int64)
        carrier[mask] = rng.choice(specials, size=int(mask.sum())).astype(np.int32)
        return carrier
    info = np.iinfo(np.int64)
    carrier = rng.integers(fmt.min_raw, fmt.max_raw + 1, size=shape)
    specials = np.array(
        [info.min, info.max, 1 << 53, (1 << 53) + 1, -(1 << 53) - 1, 1 << 62,
         fmt.max_raw + 1, fmt.min_raw - 1],
        dtype=np.int64,
    )
    carrier[mask] = rng.choice(specials, size=int(mask.sum()))
    return carrier


@DETERMINISTIC
@given(
    fmt_name=st.sampled_from(sorted(FORMATS)),
    window=st.sampled_from([1, 3, 5, 32]),
    n_intervals=st.sampled_from([1, 7, 64, 65, 90]),
    extra=st.integers(0, 3),
    mf=st.sampled_from(["absent", "below", "above"]),
    dense_above=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    kind=st.sampled_from(["float", "int32", "int64"]),
    n_shots=st.integers(1, 20),
    chunk=st.sampled_from([1, 3, 8, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_kernel_equals_module_chain(
    fmt_name, window, n_intervals, extra, mf, dense_above, kind, n_shots, chunk, seed
):
    if window == 32 and n_intervals > 7:
        n_intervals = 7  # keep traces short; the 64-interval cut is covered by the others
    extra = min(extra, window - 1)  # trailing samples that fill no window
    fmt = FORMATS[fmt_name]
    rng = np.random.default_rng(seed)
    parameters = build_parameters(
        rng, fmt, window, n_intervals, extra, mf != "absent", mf == "above", dense_above
    )
    emulator = FpgaStudentEmulator(parameters)
    # Each site took the route its weight scale asks for.
    assert [w is None for w in emulator._weights] == list(dense_above)
    if mf != "absent":
        assert (emulator._envelope is None) == (mf == "above")

    carrier = hostile_carrier(rng, fmt, kind, (n_shots, parameters.n_samples, 2))
    expected_features, expected_logits = module_chain(emulator, saturated(fmt, carrier))
    original = emulator_module._BATCH_CHUNK
    emulator_module._BATCH_CHUNK = chunk
    try:
        if kind == "float":
            features = emulator.features_raw(carrier)
            logits = emulator.predict_logits_raw(carrier)
        else:
            features = emulator.features_from_raw(carrier)
            logits = emulator.predict_logits_from_raw(carrier)
    finally:
        emulator_module._BATCH_CHUNK = original
    np.testing.assert_array_equal(features, expected_features)
    np.testing.assert_array_equal(logits, expected_logits)


@pytest.mark.parametrize("kind", ["float", "int32", "int64"])
def test_full_chunk_boundary_with_hostile_samples(kind):
    """Real chunk size, a shot count that is not a multiple of it."""
    rng = np.random.default_rng(9001)
    parameters = build_parameters(rng, Q16_16, 5, 20, 1, True, False, (False, False, False))
    emulator = FpgaStudentEmulator(parameters)
    n_shots = emulator_module._BATCH_CHUNK + 37
    carrier = hostile_carrier(rng, Q16_16, kind, (n_shots, parameters.n_samples, 2))
    _, expected = module_chain(emulator, saturated(Q16_16, carrier))
    serve = emulator.predict_logits_raw if kind == "float" else emulator.predict_logits_from_raw
    np.testing.assert_array_equal(serve(carrier), expected)


def test_nan_outside_every_window_is_ignored():
    """Samples past the last full window and the envelope feed no sum."""
    rng = np.random.default_rng(3)
    parameters = build_parameters(rng, Q16_16, 4, 5, 3, False, False, (False, False, False))
    emulator = FpgaStudentEmulator(parameters)
    traces = rng.uniform(-2.0, 2.0, size=(4, parameters.n_samples, 2))
    clean = emulator.predict_logits_raw(traces)
    traces[:, -1, :] = np.nan
    np.testing.assert_array_equal(emulator.predict_logits_raw(traces), clean)


def test_wide_format_uses_the_int64_arena():
    """Above 53 bits float64 cannot hold a raw sample; every site keeps int64."""
    fmt = FixedPointFormat(integer_bits=30, fractional_bits=26)
    rng = np.random.default_rng(5)
    parameters = build_parameters(rng, fmt, 4, 5, 0, True, True, (True, True, True))
    emulator = FpgaStudentEmulator(parameters)
    assert emulator._arena_dtype == np.dtype(np.int64)
    traces = rng.uniform(-2.0, 2.0, size=(6, parameters.n_samples, 2))
    traces[0, 0, 0] = np.nan
    traces[1, 0, 0] = 1e300
    _, expected = module_chain(emulator, fmt.to_raw(traces))
    np.testing.assert_array_equal(emulator.predict_logits_raw(traces), expected)
