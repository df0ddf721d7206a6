"""The deployable multi-qubit readout engine.

A :class:`ReadoutEngine` is the serving form of a trained KLiNQ system: one
:class:`~repro.engine.backends.ReadoutBackend` per qubit, fed by a shared
capture path.  It is what the paper actually deploys -- five independent
distilled students running concurrently on hardware -- reduced to a Python
object with three jobs:

* **one dispatch path** -- :meth:`serve` consumes a
  :class:`~repro.engine.request.ReadoutRequest` (float ``traces`` or integer
  ``raw`` carrier, any qubit subset, states/logits/both), validates it once,
  routes float vs. raw, and fans the selected qubits out across a thread
  pool.  Each fixed-point backend runs the emulator's fused kernel: chunks
  of :data:`repro.fpga.emulator._BATCH_CHUNK` shots are digitized into a
  per-call float64 arena of exact integers and reduced by NumPy/BLAS
  products that release the GIL, so per-qubit threads overlap on
  multi-core hosts.  Qubits are independent, so the parallel and
  sequential paths are bit-identical; a sequential fallback is always
  available (``parallel=False``, or automatically on single-core hosts).
  The legacy entry points (``discriminate``/``predict_logits`` x single/all
  x float/raw) are kept as thin shims that build the equivalent request --
  new code should speak :meth:`serve` directly;
* **independent readout** -- a request with ``qubits=(q,)`` (or the
  :meth:`discriminate` shim) reads any single qubit at any time (the
  mid-circuit capability), never touching the other backends;
* **persistence** -- :meth:`save` / :meth:`load` turn the engine into a
  deployable artifact directory (see :mod:`repro.engine.bundle`) instead of
  a live Python object.  :class:`repro.service.ReadoutService` builds on the
  same request objects to micro-batch and shard traffic across processes
  that each load such a bundle.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

import numpy as np

from repro.engine.backends import ReadoutBackend, make_backend, states_from_logits
from repro.engine.request import (
    ReadoutRequest,
    ReadoutResult,
    single_trace_shape_error,
    validate_multiplexed_payload,
)
from repro.fpga.fixed_point import FixedPointFormat, Q16_16

__all__ = ["ReadoutEngine", "serve_traces"]


def serve_traces(
    fn: Callable[[np.ndarray], np.ndarray], traces: np.ndarray
) -> np.ndarray:
    """Apply ``fn`` to a trace batch, accepting a single bare trace too.

    ``traces`` is ``(n_shots, n_samples, 2)`` or a single ``(n_samples, 2)``
    trace; a single trace is wrapped into a one-shot batch for ``fn`` and the
    scalar result unwrapped again.  This is the one definition of the
    single-trace convention every readout serving surface shares, and it
    raises shape errors through the same formatter as the multiplexed
    request validation (:mod:`repro.engine.request`), so single-qubit and
    multiplexed callers see consistent expected-vs-actual messages.

    The input dtype is preserved: integer raw carriers (int32/int64 ADC
    output) pass through untouched so the integer-only datapaths downstream
    stay bit-exact, and each float backend applies its own float64 coercion
    exactly as before.  (An unconditional ``float64`` round-trip here would
    silently destroy int64 raw values above 2**53.)
    """
    traces = np.asarray(traces)
    if traces.ndim not in (2, 3) or traces.shape[-1] != 2:
        raise single_trace_shape_error(traces.shape, raw=traces.dtype.kind == "i")
    single = traces.ndim == 2
    if single:
        traces = traces[None, ...]
    result = fn(traces)
    return result[0] if single else result


def _available_cpu_count() -> int:
    """CPUs actually usable by this process.

    ``os.sched_getaffinity`` reflects container/cgroup CPU restrictions where
    available (Linux); ``os.cpu_count`` reports the physical host and would
    overspawn worker threads in a CPU-restricted container.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform-specific failure
            pass
    return os.cpu_count() or 1


class ReadoutEngine:
    """Serves multi-qubit readout through one backend per qubit.

    Parameters
    ----------
    backends:
        One :class:`~repro.engine.backends.ReadoutBackend` per qubit, in
        qubit order.
    max_workers:
        Upper bound on the per-qubit worker threads used by the parallel
        path.  ``None`` (default) uses ``min(n_qubits, os.cpu_count())``.
    """

    def __init__(
        self, backends: Sequence[ReadoutBackend], max_workers: int | None = None
    ) -> None:
        backends = list(backends)
        if not backends:
            raise ValueError("ReadoutEngine requires at least one backend")
        for index, backend in enumerate(backends):
            if not isinstance(backend, ReadoutBackend):
                raise TypeError(
                    f"Backend for qubit {index} ({type(backend).__name__}) does not "
                    "satisfy the ReadoutBackend protocol"
                )
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.backends: list[ReadoutBackend] = backends
        self.max_workers = max_workers
        # The worker pool is created lazily on the first parallel call and
        # reused afterwards: in a low-latency serving loop the per-call
        # spawn/join cost of a fresh pool would dominate small batches.  The
        # lock keeps concurrent first calls from racing to create (and
        # orphan) duplicate pools.
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._closed = False

    # ---------------------------------------------------------------- metadata
    @property
    def n_qubits(self) -> int:
        """Number of independently-served qubits."""
        return len(self.backends)

    @property
    def backend_kind(self) -> str:
        """The shared backend selector, or ``"mixed"`` for heterogeneous engines."""
        kinds = {backend.name for backend in self.backends}
        return kinds.pop() if len(kinds) == 1 else "mixed"

    @property
    def is_bit_exact(self) -> bool:
        """Whether every per-qubit datapath is integer-exact."""
        return all(backend.is_bit_exact for backend in self.backends)

    @property
    def supports_raw(self) -> bool:
        """Whether every per-qubit backend consumes raw integer carriers.

        When False, raw requests refuse to serve unless the caller explicitly
        opts into the ``dequantize`` float fallback.
        """
        return all(
            getattr(backend, "supports_raw", False) for backend in self.backends
        )

    @property
    def worker_count(self) -> int:
        """Worker threads the parallel path uses on this host.

        ``min(n_qubits, max_workers or available CPUs)``; 1 means the engine
        always serves sequentially.  Available CPUs honour scheduler affinity
        (``os.sched_getaffinity``) so a CPU-restricted container does not
        overspawn threads.
        """
        limit = self.max_workers if self.max_workers is not None else _available_cpu_count()
        return max(1, min(self.n_qubits, limit))

    # ------------------------------------------------------------ construction
    @classmethod
    def from_students(
        cls,
        students: Sequence,
        backend: str = "float",
        fmt: FixedPointFormat = Q16_16,
        max_workers: int | None = None,
    ) -> "ReadoutEngine":
        """Build an engine from trained students, one datapath kind for all.

        ``backend`` selects the datapath (``"float"`` or ``"fpga"``) for every
        qubit; ``fmt`` is the fixed-point format used when quantizing for the
        ``"fpga"`` kind.
        """
        return cls(
            [make_backend(student, kind=backend, fmt=fmt) for student in students],
            max_workers=max_workers,
        )

    # -------------------------------------------------------- the dispatch path
    def serve(
        self, request: ReadoutRequest, parallel: bool | None = None
    ) -> ReadoutResult:
        """Serve one :class:`~repro.engine.request.ReadoutRequest`.

        The single dispatch path behind every serving surface: validates the
        request once against this engine (qubit selection, carrier shape,
        raw-capability opt-ins), routes float vs. raw, and fans the selected
        qubits out per qubit -- across the worker pool when ``parallel`` is
        true (``None`` = automatic: parallel whenever more than one worker is
        available), else sequentially; both paths are bit-identical because
        qubits are independent.

        ``output="both"`` runs the logits pass once and derives the states by
        the shared zero-threshold rule
        (:func:`repro.engine.backends.states_from_logits`), which is
        bit-identical to asking each backend for states directly.

        Returns a :class:`~repro.engine.request.ReadoutResult` whose
        ``states``/``logits`` columns follow the request's qubit order and
        whose ``elapsed_s`` measures this call.
        """
        start = time.perf_counter()
        if not isinstance(request, ReadoutRequest):
            raise TypeError(
                f"serve() takes a ReadoutRequest, got {type(request).__name__}; "
                "build one with ReadoutRequest(traces=...) or ReadoutRequest(raw=...)"
            )
        selected = self._resolve_qubits(request.qubits)
        want_logits = request.output in ("logits", "both")
        mode = "logits" if want_logits else "states"
        if request.is_raw:
            payload = request.raw
            validate_multiplexed_payload(payload, len(selected), raw=True)
            fns = [
                self._raw_serving_fn(
                    self.backends[qubit], qubit, mode, request.dequantize, request.fmt
                )
                for qubit in selected
            ]
        else:
            payload = np.asarray(request.traces, dtype=np.float64)
            validate_multiplexed_payload(payload, len(selected), raw=False)
            fns = [
                (self.backends[qubit].predict_logits if want_logits
                 else self.backends[qubit].predict_states)
                for qubit in selected
            ]
        out = np.empty(
            (payload.shape[0], len(selected)),
            dtype=np.float64 if want_logits else np.int64,
        )
        self._run_columns(fns, payload, out, parallel)
        if request.output == "both":
            logits, states = out, states_from_logits(out)
        elif request.output == "logits":
            logits, states = out, None
        else:
            logits, states = None, out
        return ReadoutResult(
            qubits=tuple(selected),
            output=request.output,
            states=states,
            logits=logits,
            n_shots=int(payload.shape[0]),
            elapsed_s=time.perf_counter() - start,
            # Observability: every dispatch path records what served it; the
            # service/transport layers extend this with shard counts and
            # transport names.
            meta={"backend": self.backend_kind},
        )

    # --------------------------------------------------------------- legacy API
    #
    # The eight original entry points -- discriminate/predict_logits x
    # single/all x float/raw -- are kept as thin shims over serve().  They are
    # **deprecated in favour of serve()**: they add no behaviour, exist so
    # trained deployments keep working verbatim, and are pinned bit-identical
    # to the request path by tests/engine/test_serve_api.py.  Each emits a
    # DeprecationWarning; the test suite turns those into errors outside the
    # legacy-shim tests so no new code path sneaks back onto the old API.

    @staticmethod
    def _warn_deprecated(method: str, replacement: str) -> None:
        warnings.warn(
            f"ReadoutEngine.{method}() is deprecated; {replacement}",
            DeprecationWarning,
            stacklevel=3,
        )

    def _serve_single_qubit(
        self,
        traces: np.ndarray,
        qubit_index: int,
        output: str = "states",
        raw: bool = False,
        dequantize: bool = False,
        fmt: FixedPointFormat | None = None,
    ) -> np.ndarray:
        """Single-qubit serving with the bare-trace convention.

        The one adapter from the "this qubit's batch (or single trace)"
        signature onto the request path, shared by the deprecated shims and
        by :meth:`KlinqReadout.discriminate` (which is not deprecated and
        must not route through a warning shim).
        """
        def run(batch: np.ndarray) -> np.ndarray:
            kwargs = dict(qubits=(qubit_index,), output=output)
            if raw:
                request = ReadoutRequest(
                    raw=batch[:, None], dequantize=dequantize, fmt=fmt, **kwargs
                )
            else:
                request = ReadoutRequest(traces=batch[:, None], **kwargs)
            result = self.serve(request)
            columns = result.logits if output == "logits" else result.states
            return columns[:, 0]

        return serve_traces(run, traces)

    def discriminate(self, traces: np.ndarray, qubit_index: int) -> np.ndarray:
        """Independent (mid-circuit capable) readout of a single qubit.

        ``traces`` is this qubit's batch ``(n_shots, n_samples, 2)`` or a
        single ``(n_samples, 2)`` trace; only that qubit's backend runs.

        .. deprecated:: use ``serve(ReadoutRequest(traces=batch[:, None],
           qubits=(qubit_index,)))`` -- this shim only adapts the single-qubit
           trace convention onto the request path.
        """
        self._warn_deprecated(
            "discriminate",
            "serve a ReadoutRequest(traces=batch[:, None], qubits=(q,)) instead",
        )
        return self._serve_single_qubit(traces, qubit_index, output="states")

    def predict_logits(self, traces: np.ndarray, qubit_index: int) -> np.ndarray:
        """Float logits of a single qubit's backend for its trace batch.

        .. deprecated:: use :meth:`serve` with ``qubits=(qubit_index,)`` and
           ``output="logits"``.
        """
        self._warn_deprecated(
            "predict_logits",
            "serve a ReadoutRequest(traces=batch[:, None], qubits=(q,), "
            "output='logits') instead",
        )
        return self._serve_single_qubit(traces, qubit_index, output="logits")

    def discriminate_all(
        self, traces: np.ndarray, parallel: bool | None = None
    ) -> np.ndarray:
        """Read out every qubit of a batch of multiplexed shots.

        ``traces`` has shape ``(n_shots, n_qubits, n_samples, 2)``; the result
        is ``(n_shots, n_qubits)`` of assigned states.

        .. deprecated:: use ``serve(ReadoutRequest(traces=traces)).states``.
        """
        self._warn_deprecated(
            "discriminate_all", "use serve(ReadoutRequest(traces=traces)).states"
        )
        return self.serve(
            ReadoutRequest(traces=traces, output="states"), parallel=parallel
        ).states

    def predict_logits_all(
        self, traces: np.ndarray, parallel: bool | None = None
    ) -> np.ndarray:
        """Float logits of every qubit for a multiplexed batch.

        .. deprecated:: use ``serve(ReadoutRequest(traces=traces,
           output="logits")).logits``.
        """
        self._warn_deprecated(
            "predict_logits_all",
            "use serve(ReadoutRequest(traces=traces, output='logits')).logits",
        )
        return self.serve(
            ReadoutRequest(traces=traces, output="logits"), parallel=parallel
        ).logits

    def discriminate_raw(
        self,
        trace_raw: np.ndarray,
        qubit_index: int,
        dequantize: bool = False,
        fmt: FixedPointFormat | None = None,
    ) -> np.ndarray:
        """Independent single-qubit readout from raw integer carriers.

        ``trace_raw`` is this qubit's digitized batch ``(n_shots, n_samples,
        2)`` or a single ``(n_samples, 2)`` trace of int32/int64 ADC samples.
        Backends without raw support raise unless ``dequantize`` explicitly
        opts into the float fallback (see :meth:`serve`).

        .. deprecated:: use :meth:`serve` with ``raw=`` and
           ``qubits=(qubit_index,)``.
        """
        self._warn_deprecated(
            "discriminate_raw",
            "serve a ReadoutRequest(raw=batch[:, None], qubits=(q,)) instead",
        )
        return self._serve_single_qubit(
            trace_raw,
            qubit_index,
            output="states",
            raw=True,
            dequantize=dequantize,
            fmt=fmt,
        )

    def predict_logits_from_raw(
        self,
        trace_raw: np.ndarray,
        qubit_index: int,
        dequantize: bool = False,
        fmt: FixedPointFormat | None = None,
    ) -> np.ndarray:
        """Float logits of a single qubit's backend from raw integer carriers.

        Named ``*_from_raw`` to match the backend-level entry point it fans
        into -- ``FixedPointBackend.predict_logits_raw`` is a *different*
        operation (float traces in, raw integer logits out).

        .. deprecated:: use :meth:`serve` with ``raw=``,
           ``qubits=(qubit_index,)`` and ``output="logits"``.
        """
        self._warn_deprecated(
            "predict_logits_from_raw",
            "serve a ReadoutRequest(raw=batch[:, None], qubits=(q,), "
            "output='logits') instead",
        )
        return self._serve_single_qubit(
            trace_raw,
            qubit_index,
            output="logits",
            raw=True,
            dequantize=dequantize,
            fmt=fmt,
        )

    def discriminate_all_raw(
        self,
        traces_raw: np.ndarray,
        parallel: bool | None = None,
        dequantize: bool = False,
        fmt: FixedPointFormat | None = None,
    ) -> np.ndarray:
        """Read out every qubit of a multiplexed batch of raw integer carriers.

        ``traces_raw`` has shape ``(n_shots, n_qubits, n_samples, 2)`` with an
        int32/int64 dtype (the ADC output); the result is ``(n_shots,
        n_qubits)`` of assigned states, bit-identical to
        :meth:`discriminate_all` on the float traces the carriers were
        digitized from when every backend is raw-capable.

        Backends without raw support (``supports_raw`` False, e.g. the float
        student datapath) make the call fail loudly instead of silently
        mis-serving integer samples as floats.  Passing ``dequantize=True``
        opts those backends into an explicit float fallback that converts the
        carriers back to real values through ``fmt`` first (when ``fmt`` is
        omitted it defaults to the format the engine's raw-capable backends
        consume, so a mixed engine dequantizes consistently with its fpga
        columns; Q16.16 if there are none); raw-capable backends keep their
        integer-only path either way.

        .. deprecated:: use ``serve(ReadoutRequest(raw=traces_raw,
           dequantize=..., fmt=...)).states``.
        """
        self._warn_deprecated(
            "discriminate_all_raw",
            "use serve(ReadoutRequest(raw=traces_raw, ...)).states",
        )
        return self.serve(
            ReadoutRequest(
                raw=traces_raw, output="states", dequantize=dequantize, fmt=fmt
            ),
            parallel=parallel,
        ).states

    def predict_logits_all_raw(
        self,
        traces_raw: np.ndarray,
        parallel: bool | None = None,
        dequantize: bool = False,
        fmt: FixedPointFormat | None = None,
    ) -> np.ndarray:
        """Float logits of every qubit for a multiplexed raw-carrier batch.

        Same capability semantics as :meth:`discriminate_all_raw`; the result
        is ``(n_shots, n_qubits)`` of float logits, bit-identical to
        :meth:`predict_logits_all` on the originating float traces for
        raw-capable (fpga) backends.

        .. deprecated:: use ``serve(ReadoutRequest(raw=traces_raw,
           output="logits", dequantize=..., fmt=...)).logits``.
        """
        self._warn_deprecated(
            "predict_logits_all_raw",
            "use serve(ReadoutRequest(raw=traces_raw, output='logits', "
            "...)).logits",
        )
        return self.serve(
            ReadoutRequest(
                raw=traces_raw, output="logits", dequantize=dequantize, fmt=fmt
            ),
            parallel=parallel,
        ).logits

    # ----------------------------------------------------------------- helpers
    def _resolve_qubits(self, qubits: tuple[int, ...] | None) -> list[int]:
        """The served qubit indices, validated against this engine."""
        if qubits is None:
            return list(range(self.n_qubits))
        for qubit in qubits:
            if not 0 <= qubit < self.n_qubits:
                raise IndexError(f"qubit_index {qubit} out of range")
        return list(qubits)

    def _raw_serving_fn(
        self,
        backend: ReadoutBackend,
        qubit_index: int,
        output: str,
        dequantize: bool,
        fmt: FixedPointFormat | None,
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Per-backend raw-carrier callable producing ``output`` (states/logits).

        Raw-capable backends serve integer-only; others either fail loudly or
        -- with ``dequantize=True`` -- fall back to converting the carriers to
        real values through ``fmt`` and running their float path.
        """
        if getattr(backend, "supports_raw", False):
            if fmt is not None and fmt != backend.fmt:
                raise ValueError(
                    f"Raw carriers declared as {fmt} but the backend for qubit "
                    f"{qubit_index} consumes {backend.fmt}; re-digitize the "
                    "capture in the backend's format"
                )
            if output == "states":
                return backend.predict_states_from_raw
            return lambda t: backend.fmt.from_raw(backend.predict_logits_from_raw(t))
        if dequantize:
            dequant_fmt = self._resolve_dequantize_fmt(fmt)
            if output == "states":
                return lambda t: backend.predict_states(dequant_fmt.from_raw(t))
            return lambda t: backend.predict_logits(dequant_fmt.from_raw(t))
        raise TypeError(
            f"Backend for qubit {qubit_index} ({backend.name!r}) does not "
            "support raw integer carriers; serve float traces instead, or "
            "pass dequantize=True to opt into an explicit float fallback"
        )

    def _resolve_dequantize_fmt(self, fmt: FixedPointFormat | None) -> FixedPointFormat:
        """The format the dequantize fallback reads carriers in.

        An explicit ``fmt`` wins; otherwise the carriers are assumed to be in
        the format the engine's raw-capable backends consume (the only
        sensible capture format for a mixed engine), falling back to Q16.16
        when no backend is raw-capable.  Raw-capable backends in *multiple*
        formats make the default ambiguous -- that is an error, not a guess.
        """
        if fmt is not None:
            return fmt
        fmts = {
            backend.fmt
            for backend in self.backends
            if getattr(backend, "supports_raw", False)
        }
        if len(fmts) == 1:
            return next(iter(fmts))
        if len(fmts) > 1:
            names = ", ".join(sorted(str(f) for f in fmts))
            raise ValueError(
                "Cannot infer the carrier format for dequantization: the "
                f"engine's raw-capable backends use multiple formats ({names}); "
                "pass fmt explicitly"
            )
        return Q16_16

    def _run_columns(
        self,
        fns: Sequence[Callable[[np.ndarray], np.ndarray]],
        payload: np.ndarray,
        out: np.ndarray,
        parallel: bool | None,
    ) -> None:
        """Apply ``fns[i]`` to payload column ``i``, writing ``out`` columns in place.

        Each worker owns exactly one output column, so the parallel path has
        no shared mutable state beyond disjoint slices; results are therefore
        bit-identical to the sequential loop regardless of scheduling.
        """
        workers = self.worker_count
        if parallel is None:
            parallel = workers > 1
        # A single column gains nothing from the pool and the mid-circuit
        # single-qubit path is latency-critical: skip the executor round trip
        # (bit-identical either way -- the pool runs the same fns).
        use_pool = parallel and workers > 1 and len(fns) > 1
        executor = self._get_executor(workers) if use_pool else None
        if executor is not None:
            def run_column(column: int) -> None:
                out[:, column] = fns[column](payload[:, column])

            # list() propagates the first worker exception, if any.
            list(executor.map(run_column, range(len(fns))))
        else:
            for column in range(len(fns)):
                out[:, column] = fns[column](payload[:, column])

    def _get_executor(self, workers: int) -> ThreadPoolExecutor | None:
        """The engine's persistent worker pool (``None`` once closed)."""
        with self._executor_lock:
            if self._closed:
                return None
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="readout-engine"
                )
            return self._executor

    def close(self) -> None:
        """Shut the worker pool down; later calls serve sequentially.

        Idempotent.  The engine stays usable -- only the thread fan-out is
        gone, and the sequential path is bit-identical anyway.
        """
        with self._executor_lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ReadoutEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- persistence
    def save(self, directory: str | Path) -> Path:
        """Persist this engine as a deployable artifact bundle.

        Writes ``manifest.json`` (backend kind, qubit→architecture map,
        format version, shard-layout hints, per-file checksums) plus
        per-qubit student config/weights and quantized parameters under
        ``directory``; see :mod:`repro.engine.bundle` for the layout.
        Returns the manifest path.
        """
        from repro.engine.bundle import save_engine

        return save_engine(self, directory)

    @classmethod
    def load(cls, directory: str | Path, max_workers: int | None = None) -> "ReadoutEngine":
        """Reconstruct an engine from a bundle written by :meth:`save`.

        The loaded engine's logits are bit-identical to the saved engine's
        (raw-integer exact for the fpga backend, float64 exact for the float
        backend).
        """
        from repro.engine.bundle import load_engine

        return load_engine(directory, max_workers=max_workers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReadoutEngine(n_qubits={self.n_qubits}, backend={self.backend_kind!r})"
