"""Unit tests for the DVFS / power-cap firmware."""

import pytest

from repro.gpu.dvfs import FirmwareConfig, FirmwareState, PowerManagementFirmware
from repro.gpu.spec import DVFSSpec, PowerBudget


@pytest.fixture()
def firmware():
    return PowerManagementFirmware(DVFSSpec(), PowerBudget())


def step_for(firmware, seconds, power, resident, start=0.0, dt=250e-6):
    """Drive the control loop for a duration at constant power."""
    now = start
    end = start + seconds
    while now < end:
        firmware.step(now, dt, power, resident)
        now += dt
    return now


class TestFirmwareBasics:
    def test_starts_idle_at_idle_clock(self, firmware):
        assert firmware.state is FirmwareState.IDLE
        assert firmware.frequency_ghz == pytest.approx(DVFSSpec().idle_frequency_ghz)

    def test_kernel_arrival_boosts_immediately(self, firmware):
        firmware.notify_kernel_arrival(0.0)
        assert firmware.state is FirmwareState.BOOST
        assert firmware.frequency_ghz == pytest.approx(DVFSSpec().boost_frequency_ghz)

    def test_negative_interval_rejected(self, firmware):
        with pytest.raises(ValueError):
            firmware.step(0.0, -1.0, 100.0, True)

    def test_zero_interval_is_a_noop(self, firmware):
        """Regression: dt_s == 0 used to overwrite ``_last_power_w`` and run
        the state handlers on no elapsed time."""
        firmware.notify_kernel_arrival(0.0)
        firmware.step(250e-6, 250e-6, 200.0, True)
        before_events = firmware.events
        before_state = firmware.state
        before_frequency = firmware.frequency_ghz
        before_power = firmware._last_power_w
        frequency = firmware.step(300e-6, 0.0, 555.0, True)
        assert frequency == before_frequency
        assert firmware.state is before_state
        assert firmware.frequency_ghz == before_frequency
        assert firmware._last_power_w == before_power
        assert firmware.events == before_events

    def test_zero_interval_cannot_release_a_cap(self, firmware):
        """The concrete bug: a capped controller fed a zero-length interval
        at low power used to transition to RECOVERING instantly."""
        budget = PowerBudget()
        firmware.notify_kernel_arrival(0.0)
        now = step_for(firmware, 1.5e-3, budget.board_limit_w * 1.1, resident=True)
        now = step_for(
            firmware, 10e-3, budget.board_limit_w * firmware.config.cap_target + 1.0,
            resident=True, start=now,
        )
        assert firmware.state is FirmwareState.CAPPED
        firmware.step(now, 0.0, 10.0, True)
        assert firmware.state is FirmwareState.CAPPED

    def test_zero_interval_does_not_advance_idle_park(self, firmware):
        firmware.notify_kernel_arrival(0.0)
        accum_before = firmware._idle_accum_s
        firmware.step(100e-6, 0.0, 120.0, False)
        assert firmware._idle_accum_s == accum_before
        assert firmware.state is FirmwareState.BOOST

    def test_reset_returns_to_idle(self, firmware):
        firmware.notify_kernel_arrival(0.0)
        firmware.reset()
        assert firmware.state is FirmwareState.IDLE
        assert firmware.events == []

    def test_parks_after_long_idle(self, firmware):
        firmware.notify_kernel_arrival(0.0)
        step_for(firmware, 0.01, 120.0, resident=False)
        assert firmware.state is FirmwareState.IDLE


class TestThrottling:
    def test_sustained_overdraw_triggers_hard_throttle(self, firmware):
        budget = PowerBudget()
        firmware.notify_kernel_arrival(0.0)
        step_for(firmware, 2e-3, budget.board_limit_w * 1.05, resident=True)
        assert firmware.throttle_count() >= 1
        assert firmware.was_power_limited()

    def test_brief_overdraw_does_not_throttle(self, firmware):
        budget = PowerBudget()
        firmware.notify_kernel_arrival(0.0)
        # One control period of overdraw, then back under the limit.
        firmware.step(0.0, 250e-6, budget.board_limit_w * 1.05, True)
        step_for(firmware, 2e-3, budget.board_limit_w * 0.8, resident=True, start=250e-6)
        assert firmware.throttle_count() == 0

    def test_power_below_limit_keeps_boost(self, firmware):
        budget = PowerBudget()
        firmware.notify_kernel_arrival(0.0)
        step_for(firmware, 5e-3, budget.board_limit_w * 0.8, resident=True)
        assert firmware.state is FirmwareState.BOOST
        assert firmware.frequency_ghz == pytest.approx(DVFSSpec().boost_frequency_ghz)

    def test_throttle_drops_to_sustained_clock(self, firmware):
        budget = PowerBudget()
        firmware.notify_kernel_arrival(0.0)
        step_for(firmware, 1.5e-3, budget.board_limit_w * 1.1, resident=True)
        assert firmware.frequency_ghz == pytest.approx(DVFSSpec().sustained_frequency_ghz)
        assert firmware.state is FirmwareState.THROTTLED

    def test_recovery_raises_clock_after_hold(self, firmware):
        budget = PowerBudget()
        dvfs = DVFSSpec()
        firmware.notify_kernel_arrival(0.0)
        now = step_for(firmware, 1.5e-3, budget.board_limit_w * 1.1, resident=True)
        # Power drops well below the limit once throttled; the clock should
        # creep back up after the hold-off.
        step_for(firmware, 8e-3, budget.board_limit_w * 0.75, resident=True, start=now)
        assert firmware.frequency_ghz > dvfs.sustained_frequency_ghz

    def test_recovery_stops_at_cap_target(self, firmware):
        budget = PowerBudget()
        config = firmware.config
        firmware.notify_kernel_arrival(0.0)
        now = step_for(firmware, 1.5e-3, budget.board_limit_w * 1.1, resident=True)
        # Simulate power tracking the cap target as the clock recovers.
        step_for(
            firmware, 10e-3, budget.board_limit_w * (config.cap_target + 0.01),
            resident=True, start=now,
        )
        assert firmware.state is FirmwareState.CAPPED

    def test_events_recorded_in_order(self, firmware):
        budget = PowerBudget()
        firmware.notify_kernel_arrival(0.0)
        step_for(firmware, 3e-3, budget.board_limit_w * 1.1, resident=True)
        times = [event.time_s for event in firmware.events]
        assert times == sorted(times)
        states = [event.state for event in firmware.events]
        assert FirmwareState.THROTTLED in states


class TestFiniteEventPower:
    """Regression: kernel-arrival boosts used to record ``power_w=NaN``,
    poisoning any aggregation over the event history."""

    def test_first_arrival_records_zero_power(self, firmware):
        firmware.notify_kernel_arrival(0.0)
        boost_event = firmware.events[-1]
        assert boost_event.state is FirmwareState.BOOST
        assert boost_event.power_w == 0.0

    def test_arrival_after_steps_records_last_known_power(self, firmware):
        firmware.notify_kernel_arrival(0.0)
        step_for(firmware, 0.01, 130.0, resident=False)
        assert firmware.state is FirmwareState.IDLE
        firmware.notify_kernel_arrival(0.011)
        assert firmware.events[-1].state is FirmwareState.BOOST
        assert firmware.events[-1].power_w == pytest.approx(130.0)

    def test_all_event_fields_finite_in_throttling_scenario(self, firmware):
        import math

        budget = PowerBudget()
        for cycle in range(3):
            start = cycle * 12e-3
            firmware.notify_kernel_arrival(start)
            now = step_for(firmware, 4e-3, budget.board_limit_w * 1.1, resident=True, start=start)
            step_for(firmware, 6e-3, 120.0, resident=False, start=now)
        assert firmware.events
        for event in firmware.events:
            assert math.isfinite(event.time_s)
            assert math.isfinite(event.frequency_ghz)
            assert math.isfinite(event.power_w)

    def test_mean_event_power_is_finite_on_device_workload(self):
        import math

        from repro.gpu.device import SimulatedGPU
        from repro.gpu.spec import mi300x_spec
        from repro.kernels.workloads import cb_gemm

        spec = mi300x_spec()
        device = SimulatedGPU(spec, seed=3)
        descriptor = cb_gemm(8192).activity_descriptor(spec)
        for _ in range(3):
            device.park()
            for _ in range(4):
                device.execute_kernel(descriptor)
        events = device.firmware_events()
        assert events
        mean_power = sum(event.power_w for event in events) / len(events)
        assert math.isfinite(mean_power)


class TestFirmwareConfig:
    def test_custom_config_honoured(self):
        config = FirmwareConfig(excursion_window_s=100e-6, throttle_hold_s=1e-3)
        firmware = PowerManagementFirmware(DVFSSpec(), PowerBudget(), config)
        budget = PowerBudget()
        firmware.notify_kernel_arrival(0.0)
        step_for(firmware, 500e-6, budget.board_limit_w * 1.1, resident=True)
        assert firmware.throttle_count() == 1

    def test_negative_cap_release_hysteresis_rejected(self):
        with pytest.raises(ValueError):
            FirmwareConfig(cap_release_hysteresis=-0.01)

    def test_default_hysteresis_preserves_previous_behaviour(self):
        assert FirmwareConfig().cap_release_hysteresis == 0.03


def drive_to_cap(firmware):
    budget = PowerBudget()
    firmware.notify_kernel_arrival(0.0)
    now = step_for(firmware, 1.5e-3, budget.board_limit_w * 1.1, resident=True)
    now = step_for(
        firmware, 10e-3, budget.board_limit_w * firmware.config.cap_target + 1.0,
        resident=True, start=now,
    )
    assert firmware.state is FirmwareState.CAPPED
    return now


class TestCapReleaseHysteresis:
    """The cap-release margin was a hard-coded 0.03; it is now a validated
    ``FirmwareConfig`` field so sweeps and ablations can vary it."""

    RELEASE_FRACTION = 0.97  # below the default release point, above a wide one

    def test_power_inside_hysteresis_band_holds_the_cap(self):
        budget = PowerBudget()
        config = FirmwareConfig(cap_release_hysteresis=0.2)
        firmware = PowerManagementFirmware(DVFSSpec(), budget, config)
        now = drive_to_cap(firmware)
        firmware.step(now, 250e-6, budget.board_limit_w * self.RELEASE_FRACTION, True)
        assert firmware.state is FirmwareState.CAPPED

    def test_power_below_hysteresis_band_releases_the_cap(self):
        budget = PowerBudget()
        config = FirmwareConfig(cap_release_hysteresis=0.0)
        firmware = PowerManagementFirmware(DVFSSpec(), budget, config)
        now = drive_to_cap(firmware)
        firmware.step(now, 250e-6, budget.board_limit_w * self.RELEASE_FRACTION, True)
        assert firmware.state is FirmwareState.RECOVERING

    def test_default_matches_previous_hard_coded_margin(self):
        budget = PowerBudget()
        for fraction, expected in (
            (FirmwareConfig().cap_target - 0.029, FirmwareState.CAPPED),
            (FirmwareConfig().cap_target - 0.031, FirmwareState.RECOVERING),
        ):
            firmware = PowerManagementFirmware(DVFSSpec(), budget)
            now = drive_to_cap(firmware)
            firmware.step(now, 250e-6, budget.board_limit_w * fraction, True)
            assert firmware.state is expected, fraction
