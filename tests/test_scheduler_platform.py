"""Unit tests for the CPU-side launch path and the multi-GPU platform."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.gpu.activity import KernelActivityDescriptor, flat_profile_phases
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.device import SimulatedGPU
from repro.gpu.platform import InfinityPlatform
from repro.gpu.scheduler import KernelLauncher, LaunchConfig
from repro.gpu.spec import mi300x_platform_spec, mi300x_spec
from repro.kernels.workloads import cb_gemm


@pytest.fixture()
def launcher(device):
    return KernelLauncher(device, LaunchConfig())


@pytest.fixture()
def descriptor(spec):
    return cb_gemm(4096).activity_descriptor(spec)


class TestKernelLauncher:
    def test_launch_returns_observed_times(self, launcher, descriptor):
        observed = launcher.launch(descriptor)
        assert observed.cpu_end_s > observed.cpu_start_s
        assert observed.kernel_name == descriptor.name

    def test_observed_duration_close_to_ground_truth(self, launcher, descriptor):
        observed = launcher.launch(descriptor)
        assert observed.cpu_duration_s == pytest.approx(
            observed.ground_truth.duration_s, rel=0.05
        )

    def test_launch_latency_delays_start(self, launcher, descriptor):
        submit = launcher.device.now_s()
        observed = launcher.launch(descriptor)
        assert observed.ground_truth.start_s > submit

    def test_launch_sequence_indices_and_ordering(self, launcher, descriptor):
        observed = launcher.launch_sequence(descriptor, executions=4)
        assert [o.execution_index for o in observed] == [0, 1, 2, 3]
        for a, b in zip(observed, observed[1:]):
            assert b.cpu_start_s > a.cpu_end_s

    def test_launch_sequence_start_index(self, launcher, descriptor):
        observed = launcher.launch_sequence(descriptor, executions=2, start_index=5)
        assert [o.execution_index for o in observed] == [5, 6]

    def test_launch_sequence_rejects_zero(self, launcher, descriptor):
        with pytest.raises(ValueError):
            launcher.launch_sequence(descriptor, executions=0)

    def test_invalid_launch_config_rejected(self):
        with pytest.raises(ValueError):
            LaunchConfig(launch_latency_s=-1.0).validate()

    def test_sequence_timings_match_launch_sequence(self, spec, descriptor):
        timed = KernelLauncher(SimulatedGPU(spec, seed=77))
        observed = KernelLauncher(SimulatedGPU(spec, seed=77))
        timings = timed.sequence_timings(descriptor, executions=6, start_index=3)
        reference = observed.launch_sequence(descriptor, executions=6, start_index=3)
        assert [t.index for t in timings] == [o.execution_index for o in reference]
        assert [t.cpu_start_s for t in timings] == [o.cpu_start_s for o in reference]
        assert [t.cpu_end_s for t in timings] == [o.cpu_end_s for o in reference]
        assert all(t.kernel_name == descriptor.name for t in timings)


def submicrosecond_descriptor(duration_s=0.5e-6):
    """A ~0.5 us kernel: shorter than the host timestamp-error spread."""
    return KernelActivityDescriptor(
        name="tiny-kernel",
        base_duration_s=duration_s,
        compute_utilization=0.3,
        cold_executions=0,
        phases=flat_profile_phases(),
    )


class TestObservedDurationClamp:
    """Regression: independent start/end timestamp errors used to let
    sub-microsecond kernels report ``cpu_end_s < cpu_start_s``."""

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_observed_duration_never_negative(self, spec, engine):
        device = SimulatedGPU(spec, seed=5, engine=engine)
        launcher = KernelLauncher(device, LaunchConfig())
        descriptor = submicrosecond_descriptor()
        observed = launcher.launch_sequence(descriptor, executions=300)
        durations = [o.cpu_duration_s for o in observed]
        assert min(durations) >= 0.0
        # The scenario actually exercises the clamp: with a 0.6 us error on
        # each timestamp, a 0.5 us kernel inverts frequently.
        assert durations.count(0.0) > 0
        for o in observed:
            assert o.ground_truth.duration_s > 0

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_backend_run_accepts_submicrosecond_kernel(self, spec, engine):
        # Before the clamp, ExecutionTiming's validation made this raise.
        backend = SimulatedDeviceBackend(
            spec=mi300x_spec(), seed=5, config=BackendConfig(engine=engine)
        )
        record = backend.run(
            submicrosecond_descriptor(), executions=120, pre_delay_s=0.0, run_index=0
        )
        assert all(t.duration_s >= 0 for t in record.executions)


class TestInfinityPlatform:
    @pytest.fixture()
    def platform(self):
        return InfinityPlatform(mi300x_platform_spec())

    def test_fully_connected(self, platform):
        assert platform.is_fully_connected()
        links = {
            frozenset((rank, peer))
            for rank in range(platform.num_gpus)
            for peer in platform.peers_of(rank)
        }
        assert len(links) == 8 * 7 // 2

    def test_peers_of_each_rank(self, platform):
        for rank in range(platform.num_gpus):
            peers = platform.peers_of(rank)
            assert len(peers) == 7
            assert rank not in peers

    def test_link_bandwidth_and_latency(self, platform):
        assert platform.link_bandwidth(0, 1) == pytest.approx(64e9)
        assert platform.link_latency(0, 1) > 0

    def test_no_self_link(self, platform):
        with pytest.raises(ValueError):
            platform.link_bandwidth(0, 0)

    def test_invalid_rank_rejected(self, platform):
        with pytest.raises(ValueError):
            platform.peers_of(99)

    def test_parallel_transfer_scaling(self, platform):
        small = platform.parallel_peer_transfer(8 * 1024)
        large = platform.parallel_peer_transfer(128 * 1024 ** 2)
        assert small.latency_bound
        assert not large.latency_bound
        assert large.duration_s > small.duration_s

    def test_parallel_transfer_bandwidth_bounded_by_link(self, platform):
        estimate = platform.parallel_peer_transfer(128 * 1024 ** 2)
        # Effective bandwidth cannot exceed aggregate link bandwidth.
        assert estimate.effective_bandwidth_bytes_per_s <= platform.aggregate_fabric_bandwidth(0)

    def test_negative_transfer_rejected(self, platform):
        with pytest.raises(ValueError):
            platform.parallel_peer_transfer(-1.0)

    def test_profiled_gpu_available(self, platform):
        assert platform.profiled_gpu.spec.num_xcds == 8

    def test_import_needs_no_networkx(self):
        # numpy is the only runtime dependency pyproject.toml declares.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        script = (
            "import sys; sys.modules['networkx'] = None; "
            "import repro; from repro.gpu.platform import InfinityPlatform; "
            "assert InfinityPlatform().peers_of(0) == list(range(1, 8))"
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
