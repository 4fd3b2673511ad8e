"""Unit tests for the CPU/GPU clock domains."""

import numpy as np
import pytest

from repro.gpu.clocks import CPUClock, GPUTimestampCounter, SimulationClock
from repro.gpu.spec import ClockSpec


@pytest.fixture()
def sim_clock():
    return SimulationClock()


@pytest.fixture()
def counter(sim_clock):
    return GPUTimestampCounter(ClockSpec(), sim_clock, np.random.default_rng(0))


class TestSimulationClock:
    def test_starts_at_zero(self, sim_clock):
        assert sim_clock.now_s == 0.0

    def test_advance_accumulates(self, sim_clock):
        sim_clock.advance(1.5)
        sim_clock.advance(0.25)
        assert sim_clock.now_s == pytest.approx(1.75)

    def test_negative_advance_rejected(self, sim_clock):
        with pytest.raises(ValueError):
            sim_clock.advance(-1e-9)

    def test_advance_to_never_goes_backwards(self, sim_clock):
        sim_clock.advance(2.0)
        sim_clock.advance_to(1.0)
        assert sim_clock.now_s == pytest.approx(2.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimulationClock(start_s=-1.0)


class TestCPUClock:
    def test_tracks_simulated_time(self, sim_clock):
        cpu = CPUClock(sim_clock)
        sim_clock.advance(0.125)
        assert cpu.now_s() == pytest.approx(0.125)


class TestGPUTimestampCounter:
    def test_epoch_offset_applied(self, counter):
        spec = counter.spec
        ticks = counter.ticks_at(0.0)
        assert ticks == pytest.approx(spec.epoch_offset_s * spec.timestamp_counter_hz, rel=1e-9)

    def test_roundtrip_ticks_to_time(self, counter):
        for t in (0.0, 0.001, 1.2345):
            ticks = counter.ticks_at(t)
            assert counter.sim_time_of_ticks(ticks) == pytest.approx(t, abs=2e-8)

    def test_monotonic_in_time(self, counter):
        times = np.linspace(0, 0.01, 50)
        ticks = [counter.ticks_at(t) for t in times]
        assert all(a < b for a, b in zip(ticks, ticks[1:]))

    def test_drift_changes_rate(self, sim_clock):
        drifting = GPUTimestampCounter(
            ClockSpec(drift_ppm=1000.0), sim_clock, np.random.default_rng(0)
        )
        nominal = GPUTimestampCounter(ClockSpec(), sim_clock, np.random.default_rng(0))
        span_drift = drifting.ticks_at(1.0) - drifting.ticks_at(0.0)
        span_nominal = nominal.ticks_at(1.0) - nominal.ticks_at(0.0)
        assert span_drift > span_nominal

    def test_read_delay_positive(self, counter):
        delays = [counter.sample_read_delay_s() for _ in range(200)]
        assert all(d > 0 for d in delays)
        assert np.mean(delays) == pytest.approx(
            counter.spec.timestamp_read_delay_s, rel=0.2
        )

    def test_read_delay_pair_equals_two_scalar_draws(self, sim_clock):
        # A jitter wide enough to hit the 0.5 us clamp on some draws.
        spec = ClockSpec(timestamp_read_delay_s=1e-6, timestamp_read_jitter_s=0.6e-6)
        paired = GPUTimestampCounter(spec, sim_clock, np.random.default_rng(9))
        scalar = GPUTimestampCounter(spec, sim_clock, np.random.default_rng(9))
        pairs = [paired.sample_read_delay_pair_s() for _ in range(5000)]
        singles = [
            (scalar.sample_read_delay_s(), scalar.sample_read_delay_s()) for _ in range(5000)
        ]
        assert pairs == singles
        assert any(0.5e-6 in pair for pair in pairs)
        assert paired._rng.bit_generator.state == scalar._rng.bit_generator.state

    def test_read_from_cpu_advances_time(self, sim_clock, counter):
        before = sim_clock.now_s
        result = counter.read_from_cpu()
        assert sim_clock.now_s > before
        assert result.round_trip_s == pytest.approx(sim_clock.now_s - before)

    def test_read_from_cpu_captures_between_issue_and_return(self, sim_clock, counter):
        before = sim_clock.now_s
        result = counter.read_from_cpu()
        capture_time = counter.sim_time_of_ticks(result.gpu_ticks)
        assert before <= capture_time <= result.cpu_time_after_s


class TestHostReadDelegation:
    """Regression: a device-attached counter read used to advance the shared
    clock without recording power, stepping the thermal model or crediting
    the firmware accumulator -- leaving silent gaps in the power timeline."""

    def make_device(self, seed=9):
        from repro.gpu.device import SimulatedGPU
        from repro.gpu.spec import mi300x_spec

        return SimulatedGPU(mi300x_spec(), seed=seed)

    def test_device_counter_read_matches_device_read_timestamp(self):
        reading_via_counter = self.make_device().timestamp_counter.read_from_cpu()
        reading_via_device = self.make_device().read_timestamp()
        assert reading_via_counter == reading_via_device

    def test_mid_recording_read_leaves_no_gap_in_power_timeline(self):
        device = self.make_device()
        device.start_recording()
        device.idle(0.4e-3)
        before = device.now_s()
        result = device.timestamp_counter.read_from_cpu()
        assert device.now_s() == pytest.approx(before + result.round_trip_s)
        device.idle(0.4e-3)
        segments = device.stop_recording()
        # The round trip is covered by idle-power segments: consecutive
        # segments tile the recording with no holes.
        for a, b in zip(segments, segments[1:]):
            assert b.start_s == pytest.approx(a.end_s, abs=1e-12)
        assert segments[-1].end_s == pytest.approx(device.now_s())

    def test_mid_recording_read_cools_the_die(self):
        device = self.make_device()
        thermal = device.thermal
        thermal.reset(0.8)
        warmth_before = thermal.warmth
        device.timestamp_counter.read_from_cpu()
        assert thermal.warmth < warmth_before

    def test_standalone_counter_keeps_legacy_behaviour(self, sim_clock, counter):
        before = sim_clock.now_s
        result = counter.read_from_cpu()
        assert result.cpu_time_after_s == pytest.approx(sim_clock.now_s)
        assert sim_clock.now_s > before
