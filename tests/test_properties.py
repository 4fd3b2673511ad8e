"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.binning import ExecutionTimeBinner
from repro.core.differentiation import ssp_execution_count
from repro.core.guidance import paper_guidance_table
from repro.core.records import DelayCalibration, TimestampAnchor
from repro.core.stitching import GoldenRuns, golden_mask
from repro.core.timesync import ClockSynchronizer
from repro.gpu.activity import KernelActivityDescriptor
from repro.gpu.clocks import GPUTimestampCounter, SimulationClock
from repro.gpu.power_model import ComponentPower, OperatingPoint, PowerModel
from repro.gpu.spec import ClockSpec, mi300x_spec
from repro.gpu.telemetry import AveragingPowerLogger, _average_power_over
from repro.gpu.device import PowerSegment

SPEC = mi300x_spec()
MODEL = PowerModel(SPEC)

durations = st.lists(
    st.floats(min_value=1e-6, max_value=1e-2, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60,
)


class TestBinningProperties:
    @given(values=durations, margin=st.floats(min_value=0.005, max_value=0.2))
    @settings(max_examples=60, deadline=None)
    def test_selection_respects_margin_and_partition(self, values, margin):
        result = ExecutionTimeBinner(margin).bin(values)
        selected = result.selected_values()
        assert selected, "at least one run is always selected"
        assert max(selected) <= min(selected) * (1 + margin) * (1 + 1e-9)
        # Selected and outliers partition the index set.
        assert sorted(result.selected_indices + result.outlier_indices) == list(range(len(values)))

    @given(values=durations)
    @settings(max_examples=40, deadline=None)
    def test_identical_values_all_selected(self, values):
        constant = [values[0]] * len(values)
        result = ExecutionTimeBinner(0.01).bin(constant)
        assert result.num_outliers == 0

    @given(values=durations, margin=st.floats(min_value=0.01, max_value=0.1))
    @settings(max_examples=40, deadline=None)
    def test_wider_margin_never_selects_fewer(self, values, margin):
        narrow = ExecutionTimeBinner(margin).bin(values)
        wide = ExecutionTimeBinner(margin * 2).bin(values)
        assert wide.num_selected >= narrow.num_selected


class TestGoldenFilterProperties:
    @given(
        rows=st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=60),
        golden=st.none() | st.lists(st.integers(-5, 90), max_size=40),
    )
    # An empty ledger; golden runs past the ledger (and below it), with
    # duplicates; an empty selection; no selection.
    @example(rows=[], golden=[3, 3, 7])
    @example(rows=[(0, True), (5, True), (5, False)], golden=[5, 5, 80, -2])
    @example(rows=[(1, True), (2, True)], golden=[])
    @example(rows=[(1, True), (2, False)], golden=None)
    @settings(max_examples=150, deadline=None)
    def test_flag_table_filter_equals_isin(self, rows, golden):
        run_idx = np.array([run for run, _ in rows], dtype=np.int64)
        mask = np.array([keep for _, keep in rows], dtype=bool)
        filtered = golden_mask(mask, run_idx, golden)
        if golden is None:
            assert filtered is mask
            return
        expected = mask & np.isin(run_idx, np.array(golden, dtype=np.int64))
        assert filtered.dtype == bool and np.array_equal(filtered, expected)
        table = GoldenRuns(golden)
        assert np.array_equal(golden_mask(mask, run_idx, table), expected)
        assert list(table) == golden


class TestTimesyncProperties:
    @given(
        cpu_time=st.floats(min_value=0.0, max_value=1e4),
        anchor_cpu=st.floats(min_value=0.0, max_value=1e4),
        round_trip=st.floats(min_value=1e-6, max_value=1e-4),
    )
    @settings(max_examples=80, deadline=None)
    def test_mapping_roundtrip(self, cpu_time, anchor_cpu, round_trip):
        anchor = TimestampAnchor(
            gpu_ticks=int(anchor_cpu * 100e6), cpu_time_after_s=anchor_cpu, round_trip_s=round_trip
        )
        calibration = DelayCalibration(round_trip, 0.0, 4)
        sync = ClockSynchronizer(anchor, 100e6, calibration)
        ticks = sync.gpu_ticks_of(cpu_time)
        assert sync.cpu_time_of(ticks) == pytest.approx(cpu_time, abs=2e-8)

    @given(offset=st.floats(min_value=0.0, max_value=100.0),
           t=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_counter_roundtrip(self, offset, t):
        counter = GPUTimestampCounter(
            ClockSpec(epoch_offset_s=offset), SimulationClock(), np.random.default_rng(0)
        )
        assert counter.sim_time_of_ticks(counter.ticks_at(t)) == pytest.approx(t, abs=2e-8)


class TestTelemetryProperties:
    @given(
        boundary=st.floats(min_value=0.1e-3, max_value=0.9e-3),
        low=st.floats(min_value=50, max_value=200),
        high=st.floats(min_value=200, max_value=700),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_average_is_convex_combination(self, boundary, low, high):
        idle = ComponentPower(low / 3, low / 3, low / 3)
        busy = ComponentPower(high / 3, high / 3, high / 3)
        segments = [
            PowerSegment(0.0, boundary, idle),
            PowerSegment(boundary, 1e-3, busy),
        ]
        average = _average_power_over(segments, 0.0, 1e-3, idle)
        assert min(low, high) - 1e-6 <= average.total_w <= max(low, high) + 1e-6
        expected = low * boundary / 1e-3 + high * (1 - boundary / 1e-3)
        assert average.total_w == pytest.approx(expected, rel=1e-6)

    @given(period=st.floats(min_value=1e-4, max_value=5e-3),
           span=st.floats(min_value=1e-3, max_value=5e-2))
    @settings(max_examples=40, deadline=None)
    def test_sample_count_bounded_by_span(self, period, span):
        counter = GPUTimestampCounter(ClockSpec(), SimulationClock(), np.random.default_rng(0))
        logger = AveragingPowerLogger(counter, period, ComponentPower(10, 10, 10))
        times = logger.sample_times_between(0.0, span)
        assert len(times) <= math.floor(span / period) + 1
        assert all(0.0 < t <= span + 1e-12 for t in times)
        assert times == sorted(times)


class TestPowerModelProperties:
    frequencies = st.floats(min_value=0.8, max_value=2.25)
    utils = st.floats(min_value=0.0, max_value=1.0)

    @given(frequency=frequencies, compute=utils, llc=utils, hbm=utils)
    @settings(max_examples=80, deadline=None)
    def test_power_bounded_by_idle_and_peak(self, frequency, compute, llc, hbm):
        descriptor = KernelActivityDescriptor(
            name="k", base_duration_s=1e-4,
            compute_utilization=compute, llc_utilization=llc, hbm_utilization=hbm,
        )
        power = MODEL.kernel_power(descriptor, OperatingPoint(frequency))
        assert power.total_w >= MODEL.idle_power().total_w - 1e-9
        # Bounded by the theoretical peak with the boost frequency scaling.
        ceiling = SPEC.power.peak_total_w * MODEL.frequency_power_scale(2.25)
        assert power.total_w <= ceiling

    @given(compute=utils)
    @settings(max_examples=40, deadline=None)
    def test_xcd_power_monotone_in_compute_utilization(self, compute):
        lighter = KernelActivityDescriptor(name="a", base_duration_s=1e-4,
                                           compute_utilization=compute * 0.5)
        heavier = KernelActivityDescriptor(name="b", base_duration_s=1e-4,
                                           compute_utilization=compute)
        point = OperatingPoint(2.1)
        assert MODEL.kernel_power(heavier, point).xcd_w >= MODEL.kernel_power(lighter, point).xcd_w - 1e-9


class TestDifferentiationProperties:
    @given(window=st.floats(min_value=1e-4, max_value=2e-3),
           execution=st.floats(min_value=5e-6, max_value=5e-3),
           sse=st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_ssp_count_covers_window_and_sse(self, window, execution, sse):
        count = ssp_execution_count(window, execution, sse)
        assert count >= sse
        assert count * execution >= window - execution  # window covered once filled


class TestGuidanceProperties:
    @given(execution=st.floats(min_value=1e-6, max_value=1e-1))
    @settings(max_examples=80, deadline=None)
    def test_lookup_always_returns_entry(self, execution):
        entry = paper_guidance_table().lookup(execution)
        assert entry.runs >= 200
        assert 0 < entry.binning_margin <= 0.05
        assert entry.recommended_lois(execution) >= 4
