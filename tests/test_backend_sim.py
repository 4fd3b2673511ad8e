"""Unit/integration tests for the simulated profiling backend."""

import pytest

from repro.core.records import RunRecord
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.kernels.workloads import cb_gemm, mb_gemv


@pytest.fixture()
def kernel():
    return cb_gemm(4096)


class TestBackendBasics:
    def test_protocol_properties(self, backend):
        assert backend.power_sample_period_s == pytest.approx(1e-3)
        assert backend.counter_frequency_hz == pytest.approx(100e6)

    def test_kernel_name_from_ai_kernel(self, backend, kernel):
        assert backend.kernel_name(kernel) == "CB-4K-GEMM"

    def test_kernel_name_from_descriptor(self, backend, kernel, spec):
        descriptor = kernel.activity_descriptor(spec)
        assert backend.kernel_name(descriptor) == "CB-4K-GEMM"

    def test_unknown_kernel_handle_rejected(self, backend):
        with pytest.raises(TypeError):
            backend.kernel_name(42)

    def test_invalid_sampler_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(sampler="bogus").validate()

    def test_positional_config_names_the_keyword(self):
        # Regression: a config passed positionally used to die deep inside
        # KernelLauncher with "'BackendConfig' object has no attribute 'rng'".
        with pytest.raises(TypeError, match=r"'device'.*BackendConfig.*config=") as info:
            SimulatedDeviceBackend(BackendConfig(sampler="coarse"))
        assert "SimulatedGPU" in str(info.value)

    def test_wrong_argument_types_name_the_parameter(self, spec):
        with pytest.raises(TypeError, match=r"'spec'.*GPUSpec.*got BackendConfig.*config="):
            SimulatedDeviceBackend(None, BackendConfig())
        with pytest.raises(TypeError, match=r"'config'.*got GPUSpec.*spec="):
            SimulatedDeviceBackend(config=spec)
        with pytest.raises(TypeError, match=r"'launch_config'.*LaunchConfig.*got str"):
            SimulatedDeviceBackend(launch_config="fast")


class TestTimeKernel:
    def test_returns_requested_number_of_durations(self, backend, kernel):
        durations = backend.time_kernel(kernel, executions=5)
        assert len(durations) == 5
        assert all(d > 0 for d in durations)

    def test_warm_executions_faster_than_cold(self, backend, kernel):
        durations = backend.time_kernel(kernel, executions=6)
        assert min(durations[3:]) < durations[0]

    def test_rejects_zero_executions(self, backend, kernel):
        with pytest.raises(ValueError):
            backend.time_kernel(kernel, executions=0)

    @pytest.mark.parametrize(
        "executions, error",
        [(True, TypeError), (2.5, TypeError), ("3", TypeError), (-1, ValueError)],
    )
    def test_rejects_malformed_counts_by_name(self, backend, kernel, executions, error):
        with pytest.raises(error, match="executions"):
            backend.time_kernel(kernel, executions)


class TestCalibration:
    def test_calibration_statistics(self, backend):
        calibration = backend.calibrate_read_delay(samples=16)
        assert calibration.samples == 16
        assert calibration.mean_round_trip_s > 0
        assert calibration.one_way_delay_s == pytest.approx(
            calibration.mean_round_trip_s / 2
        )

    def test_rejects_zero_samples(self, backend):
        with pytest.raises(ValueError):
            backend.calibrate_read_delay(samples=0)

    @pytest.mark.parametrize(
        "samples, error",
        [(True, TypeError), (2.5, TypeError), ("3", TypeError), (-1, ValueError)],
    )
    def test_rejects_malformed_counts_by_name(self, backend, samples, error):
        with pytest.raises(error, match="samples"):
            backend.calibrate_read_delay(samples=samples)


class TestRun:
    def test_run_record_structure(self, backend, kernel):
        record = backend.run(kernel, executions=4, pre_delay_s=0.5e-3, run_index=3)
        assert isinstance(record, RunRecord)
        assert record.run_index == 3
        assert record.kernel_name == "CB-4K-GEMM"
        assert record.num_executions == 4
        assert len(record.readings) > 3
        assert record.logger_period_s == pytest.approx(1e-3)
        assert "logger_start_cpu_s" in record.metadata

    def test_execution_indices_sequential(self, backend, kernel):
        record = backend.run(kernel, executions=5, pre_delay_s=0.0)
        assert [e.index for e in record.executions] == [0, 1, 2, 3, 4]

    def test_readings_have_component_breakdown(self, backend, kernel):
        record = backend.run(kernel, executions=4, pre_delay_s=0.0)
        for reading in record.readings:
            assert reading.has_component("xcd")
            assert reading.has_component("iod")
            assert reading.has_component("hbm")
            parts = sum(reading.component(c) for c in ("xcd", "iod", "hbm"))
            assert reading.total_w == pytest.approx(parts, rel=1e-6)

    def test_anchor_read_before_executions(self, backend, kernel):
        record = backend.run(kernel, executions=4, pre_delay_s=0.0)
        assert record.anchor.cpu_time_after_s < record.first_execution.cpu_start_s

    def test_pre_delay_shifts_kernel_start(self, backend, kernel):
        no_delay = backend.run(kernel, executions=2, pre_delay_s=0.0)
        gap_no_delay = no_delay.first_execution.cpu_start_s - no_delay.anchor.cpu_time_after_s
        delayed = backend.run(kernel, executions=2, pre_delay_s=1.5e-3)
        gap_delayed = delayed.first_execution.cpu_start_s - delayed.anchor.cpu_time_after_s
        assert gap_delayed > gap_no_delay + 1.0e-3

    def test_preceding_kernels_recorded_separately(self, backend, kernel):
        gemv = mb_gemv(4096)
        record = backend.run(
            kernel, executions=2, pre_delay_s=0.0, preceding=[(gemv, 3)]
        )
        assert len(record.preceding_executions) == 3
        assert all(e.kernel_name == "MB-4K-GEMV" for e in record.preceding_executions)
        # Preceding work finishes before the kernel of interest starts.
        assert record.preceding_executions[-1].cpu_end_s <= record.first_execution.cpu_start_s

    def test_rejects_invalid_arguments(self, backend, kernel):
        with pytest.raises(ValueError):
            backend.run(kernel, executions=0, pre_delay_s=0.0)
        with pytest.raises(ValueError):
            backend.run(kernel, executions=1, pre_delay_s=-1.0)

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    @pytest.mark.parametrize(
        "arguments, error, parameter",
        [
            ({"pre_delay_s": float("inf")}, ValueError, "pre_delay_s"),
            ({"pre_delay_s": float("nan")}, ValueError, "pre_delay_s"),
            ({"pre_delay_s": -1e-3}, ValueError, "pre_delay_s"),
            ({"executions": 2.5}, TypeError, "executions"),
            ({"executions": True}, TypeError, "executions"),
            ({"executions": 0}, ValueError, "executions"),
            ({"preceding": [(mb_gemv(4096), 2.0)]}, TypeError, "preceding"),
            ({"preceding": [(mb_gemv(4096), True)]}, TypeError, "preceding"),
            ({"preceding": [(mb_gemv(4096), 0)]}, ValueError, "preceding"),
        ],
    )
    def test_rejects_malformed_arguments_before_simulating(
        self, engine, arguments, error, parameter, kernel, spec
    ):
        backend = SimulatedDeviceBackend(
            spec=spec, seed=3, config=BackendConfig(engine=engine)
        )
        device = backend.device
        before = (device.now_s(), device.rng.bit_generator.state)
        with pytest.raises(error, match=parameter):
            backend.run(kernel, **{"executions": 3, "pre_delay_s": 0.0, **arguments})
        assert (device.now_s(), device.rng.bit_generator.state) == before

    def test_coarse_sampler_has_much_longer_period(self, kernel, spec):
        coarse = SimulatedDeviceBackend(
            spec=spec, seed=5, config=BackendConfig(sampler="coarse")
        )
        record = coarse.run(kernel, executions=4, pre_delay_s=0.0)
        fine = SimulatedDeviceBackend(spec=spec, seed=5)
        fine_record = fine.run(kernel, executions=4, pre_delay_s=0.0)
        assert record.logger_period_s >= 10 * fine_record.logger_period_s
        # Readings per second of recording are far sparser for the coarse sampler.
        coarse_span = record.metadata["logger_stop_cpu_s"] - record.metadata["logger_start_cpu_s"]
        fine_span = (
            fine_record.metadata["logger_stop_cpu_s"] - fine_record.metadata["logger_start_cpu_s"]
        )
        assert len(record.readings) / coarse_span < len(fine_record.readings) / fine_span

    def test_instantaneous_sampler_zero_window(self, kernel, spec):
        instant = SimulatedDeviceBackend(
            spec=spec, seed=5, config=BackendConfig(sampler="instantaneous")
        )
        record = instant.run(kernel, executions=2, pre_delay_s=0.0)
        assert all(reading.window_s == 0.0 for reading in record.readings)
