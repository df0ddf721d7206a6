"""Unit tests for the multi-qubit KLiNQ readout system."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.discriminator import KlinqReadout, ReadoutReport
from repro.core.pipeline import PipelineResult
from repro.nn.metrics import geometric_mean_fidelity


@pytest.fixture(scope="module")
def trained_readout(small_dataset, small_experiment_config):
    """A two-qubit KLiNQ system trained on the small dataset (module-scoped)."""
    readout = KlinqReadout(small_experiment_config)
    report = readout.fit(small_dataset)
    return readout, report


class TestReadoutReport:
    def test_geometric_means(self):
        results = [
            PipelineResult(q, fidelity, 0.95, 100, 1000, {"p10": 0.0, "p01": 0.0})
            for q, fidelity in enumerate([0.9, 0.7, 0.8])
        ]
        report = ReadoutReport(per_qubit=results, excluded_qubits=(1,))
        assert report.fidelities == [0.9, 0.7, 0.8]
        assert report.geometric_mean == pytest.approx(geometric_mean_fidelity([0.9, 0.7, 0.8]))
        assert report.geometric_mean_excluding == pytest.approx(
            geometric_mean_fidelity([0.9, 0.8])
        )

    def test_parameter_totals(self):
        results = [
            PipelineResult(0, 0.9, 0.95, 657, 1_627_001, {"p10": 0.0, "p01": 0.0}),
            PipelineResult(1, 0.9, 0.95, 3377, 1_627_001, {"p10": 0.0, "p01": 0.0}),
        ]
        report = ReadoutReport(per_qubit=results)
        assert report.total_student_parameters == 657 + 3377
        assert report.total_teacher_parameters == 2 * 1_627_001

    def test_summary_row_contains_values(self):
        results = [PipelineResult(0, 0.912, 0.95, 10, 20, {"p10": 0.0, "p01": 0.0})]
        report = ReadoutReport(per_qubit=results, excluded_qubits=())
        row = report.summary_row("TEST")
        assert "TEST" in row and "0.912" in row

    def test_as_dict_keys(self):
        results = [PipelineResult(0, 0.9, 0.95, 10, 20, {"p10": 0.0, "p01": 0.0})]
        payload = ReadoutReport(per_qubit=results, excluded_qubits=()).as_dict()
        assert "per_qubit" in payload and "geometric_mean" in payload


class TestKlinqReadout:
    def test_n_qubits_from_config(self, small_experiment_config):
        assert KlinqReadout(small_experiment_config).n_qubits == 2

    def test_default_config_is_five_qubits(self):
        assert KlinqReadout().n_qubits == 5

    def test_fit_reports_all_qubits(self, trained_readout):
        _, report = trained_readout
        assert len(report.per_qubit) == 2
        assert all(0.70 < f <= 1.0 for f in report.fidelities)

    def test_is_trained_flag(self, trained_readout, small_experiment_config):
        readout, _ = trained_readout
        assert readout.is_trained
        assert not KlinqReadout(small_experiment_config).is_trained

    def test_students_accessor(self, trained_readout):
        from repro.core.student import StudentModel

        readout, _ = trained_readout
        students = readout.students()
        assert len(students) == 2
        assert all(isinstance(s, StudentModel) for s in students)
        assert all(s.is_fitted for s in students)

    def test_students_accessor_before_training_raises(self, small_experiment_config):
        with pytest.raises(RuntimeError, match=r"untrained qubits \[0, 1\]"):
            KlinqReadout(small_experiment_config).students()

    def test_qubit_count_mismatch_rejected(self, five_qubit_dataset, small_experiment_config):
        readout = KlinqReadout(small_experiment_config)
        with pytest.raises(ValueError):
            readout.fit(five_qubit_dataset)

    def test_single_qubit_discrimination(self, trained_readout, small_dataset):
        readout, _ = trained_readout
        view = small_dataset.qubit_view(0)
        states = readout.discriminate(view.test_traces[:20], qubit_index=0)
        accuracy = np.mean(states == view.test_labels[:20])
        assert accuracy > 0.7

    def test_single_trace_discrimination(self, trained_readout, small_dataset):
        readout, _ = trained_readout
        state = readout.discriminate(small_dataset.qubit_view(0).test_traces[0], qubit_index=0)
        assert state in (0, 1)

    def test_discriminate_out_of_range(self, trained_readout, small_dataset):
        readout, _ = trained_readout
        with pytest.raises(IndexError):
            readout.discriminate(small_dataset.qubit_view(0).test_traces[:2], qubit_index=5)

    def test_discriminate_all_shape_and_accuracy(self, trained_readout, small_dataset):
        readout, _ = trained_readout
        states = readout.discriminate_all(small_dataset.test_traces[:100])
        assert states.shape == (100, 2)
        accuracy = np.mean(states == small_dataset.test_states[:100])
        assert accuracy > 0.8

    def test_discriminate_all_rejects_wrong_shape(self, trained_readout, small_dataset):
        readout, _ = trained_readout
        with pytest.raises(ValueError):
            readout.discriminate_all(small_dataset.test_traces[:5, :1])

    def test_independent_readout_of_one_qubit_matches_joint(self, trained_readout, small_dataset):
        """Mid-circuit property: reading one qubit alone gives the same answer as reading all."""
        readout, _ = trained_readout
        shots = small_dataset.test_traces[:50]
        joint = readout.discriminate_all(shots)
        solo = readout.discriminate(shots[:, 1], qubit_index=1)
        np.testing.assert_array_equal(joint[:, 1], solo)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_discriminate_matches_single_qubit_serve(
        self, trained_readout, small_dataset, dtype
    ):
        """discriminate(b, q) is the engine's single-qubit serve() column:
        same values and int64 dtype, for a batch and for a bare trace."""
        from repro.engine import ReadoutRequest

        readout, _ = trained_readout
        engine = readout.to_engine(backend="float")
        for qubit in range(readout.n_qubits):
            batch = small_dataset.qubit_view(qubit).test_traces[:40].astype(dtype)
            expected = engine.serve(
                ReadoutRequest(traces=batch[:, None], qubits=(qubit,))
            ).states[:, 0]
            states = readout.discriminate(batch, qubit_index=qubit)
            assert states.dtype == np.int64
            np.testing.assert_array_equal(states, expected)
            single = readout.discriminate(batch[0], qubit_index=qubit)
            assert np.ndim(single) == 0
            assert np.asarray(single).dtype == np.int64
            assert single == expected[0]


class TestServingCache:
    def test_partially_trained_single_qubit_readout_works(
        self, small_dataset, small_experiment_config
    ):
        """Mid-circuit independence survives partial training: reading a
        trained qubit must not require the other qubits' students."""
        readout = KlinqReadout(small_experiment_config)
        readout.pipelines[0].run(small_dataset.qubit_view(0))
        view = small_dataset.qubit_view(0)
        states = readout.discriminate(view.test_traces[:20], qubit_index=0)
        assert states.shape == (20,)
        np.testing.assert_array_equal(
            states, readout.pipelines[0].predict_states(view.test_traces[:20])
        )
        # The untrained qubit still raises, naming itself.
        with pytest.raises(RuntimeError, match="Qubit 1"):
            readout.discriminate(view.test_traces[:5], qubit_index=1)
        # And the joint readout still demands the full system.
        with pytest.raises(RuntimeError, match="untrained qubits"):
            readout.discriminate_all(small_dataset.test_traces[:5])

    def test_pipeline_level_retraining_invalidates_cached_engine(
        self, trained_readout, small_dataset, trained_student
    ):
        """Replacing a pipeline's student must take effect on the next call."""
        readout, _ = trained_readout
        shots = small_dataset.test_traces[:30]
        readout.discriminate_all(shots)  # populate the serving cache
        original = readout.pipelines[0].student
        try:
            readout.pipelines[0].student = trained_student
            refreshed = readout.discriminate_all(shots)
            np.testing.assert_array_equal(
                refreshed[:, 0], trained_student.predict_states(shots[:, 0])
            )
        finally:
            readout.pipelines[0].student = original


class TestToEngine:
    def test_float_engine_matches_readout_exactly(self, trained_readout, small_dataset):
        readout, _ = trained_readout
        engine = readout.to_engine(backend="float")
        assert engine.n_qubits == readout.n_qubits
        assert engine.backend_kind == "float"
        shots = small_dataset.test_traces[:60]
        from repro.engine import ReadoutRequest

        np.testing.assert_array_equal(
            engine.serve(ReadoutRequest(traces=shots)).states,
            readout.discriminate_all(shots),
        )

    def test_fpga_engine_agrees_with_float(self, trained_readout, small_dataset):
        readout, _ = trained_readout
        fpga = readout.to_engine(backend="fpga")
        assert fpga.backend_kind == "fpga" and fpga.is_bit_exact
        shots = small_dataset.test_traces[:200]
        from repro.engine import ReadoutRequest

        agreement = np.mean(
            fpga.serve(ReadoutRequest(traces=shots)).states
            == readout.discriminate_all(shots)
        )
        assert agreement >= 0.99

    def test_unknown_backend_rejected(self, trained_readout):
        readout, _ = trained_readout
        with pytest.raises(ValueError, match="backend kind"):
            readout.to_engine(backend="asic")

    def test_untrained_readout_cannot_build_engine(self, small_experiment_config):
        with pytest.raises(RuntimeError, match="untrained qubits"):
            KlinqReadout(small_experiment_config).to_engine()

    def test_engine_save_load_serves_identically(
        self, trained_readout, small_dataset, tmp_path
    ):
        """Train → to_engine → save → load → serve, the deployment flow."""
        readout, _ = trained_readout
        from repro.engine import ReadoutEngine, ReadoutRequest

        engine = readout.to_engine(backend="fpga")
        shots = small_dataset.test_traces[:60]
        request = ReadoutRequest(traces=shots, output="both")
        reference = engine.serve(request)
        engine.save(tmp_path / "deployed")
        loaded = ReadoutEngine.load(tmp_path / "deployed")
        served = loaded.serve(request)
        np.testing.assert_array_equal(served.logits, reference.logits)
        np.testing.assert_array_equal(served.states, reference.states)
