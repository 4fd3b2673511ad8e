"""Unit tests for CPU-GPU time sync, LOI extraction and execution-time binning."""

import math

import numpy as np
import pytest

from repro.core.binning import ExecutionTimeBinner, histogram_of_durations
from repro.core.records import (
    DelayCalibration,
    ExecutionTiming,
    PowerReading,
    RunRecord,
    TimestampAnchor,
)
from repro.core.timesync import ClockSynchronizer, match_execution, synchronizer_for_run
from stitching_spec import batch_lois, extract_lois_reference

COUNTER_HZ = 100e6


def build_run(kernel_start=2.0, duration=400e-6, executions=3, gap=10e-6,
              epoch_offset=5.0, readings_at=()):
    """Build a RunRecord whose GPU ticks are offset from CPU time by a known epoch."""

    def ticks(cpu_time):
        return int(round((cpu_time + epoch_offset) * COUNTER_HZ))

    timing = []
    cursor = kernel_start
    for index in range(executions):
        timing.append(ExecutionTiming(index=index, cpu_start_s=cursor, cpu_end_s=cursor + duration))
        cursor += duration + gap
    readings = tuple(
        PowerReading(gpu_timestamp_ticks=ticks(t), window_s=1e-3, total_w=300.0 + i,
                     components={"xcd": 200.0, "iod": 60.0, "hbm": 40.0 + i})
        for i, t in enumerate(readings_at)
    )
    anchor_cpu = kernel_start - 1e-3
    anchor = TimestampAnchor(
        gpu_ticks=ticks(anchor_cpu - 10e-6),  # captured one way-delay before return
        cpu_time_after_s=anchor_cpu,
        round_trip_s=20e-6,
    )
    return RunRecord(
        run_index=0, kernel_name="k", readings=readings, executions=tuple(timing),
        anchor=anchor, logger_period_s=1e-3, counter_frequency_hz=COUNTER_HZ,
        pre_delay_s=0.0, metadata={"logger_start_cpu_s": kernel_start - 3e-3},
    )


class TestClockSynchronizer:
    def test_roundtrip_mapping(self):
        anchor = TimestampAnchor(gpu_ticks=1_000_000, cpu_time_after_s=5.0, round_trip_s=24e-6)
        calibration = DelayCalibration(mean_round_trip_s=24e-6, std_round_trip_s=1e-6, samples=8)
        sync = ClockSynchronizer(anchor, COUNTER_HZ, calibration)
        for cpu_time in (5.0, 5.001, 6.2):
            ticks = sync.gpu_ticks_of(cpu_time)
            assert sync.cpu_time_of(ticks) == pytest.approx(cpu_time, abs=2e-8)

    def test_anchor_capture_accounts_for_delay(self):
        anchor = TimestampAnchor(gpu_ticks=0, cpu_time_after_s=1.0, round_trip_s=30e-6)
        calibrated = ClockSynchronizer(
            anchor, COUNTER_HZ,
            DelayCalibration(mean_round_trip_s=30e-6, std_round_trip_s=0.0, samples=4),
        )
        uncalibrated = ClockSynchronizer(anchor, COUNTER_HZ, None)
        # Both estimates land inside the round trip window.
        for sync in (calibrated, uncalibrated):
            assert 1.0 - 30e-6 <= sync.anchor_capture_cpu_s <= 1.0

    def test_recovers_true_sample_times(self):
        run = build_run(readings_at=(2.0002, 2.0006))
        sync = synchronizer_for_run(
            run, DelayCalibration(mean_round_trip_s=20e-6, std_round_trip_s=0.0, samples=4)
        )
        recovered = [sync.cpu_time_of(r.gpu_timestamp_ticks) for r in run.readings]
        assert recovered[0] == pytest.approx(2.0002, abs=30e-6)
        assert recovered[1] == pytest.approx(2.0006, abs=30e-6)


class TestLOIExtraction:
    def test_match_execution(self):
        run = build_run()
        assert match_execution(run.executions, 2.0001).index == 0
        assert match_execution(run.executions, 1.0) is None

    def test_extract_lois_places_readings_in_right_executions(self):
        # Readings inside execution 0 and execution 2, one reading in idle gap.
        run = build_run(readings_at=(2.0002, 2.00041, 2.00095))
        lois = batch_lois([run])
        indices = sorted(loi.execution_index for loi in lois)
        assert indices == [0, 1, 2]
        assert lois == extract_lois_reference(run, synchronizer_for_run(run))

    def test_extract_lois_filter_by_execution(self):
        run = build_run(readings_at=(2.0002, 2.00095))
        lois = extract_lois_reference(run, synchronizer_for_run(run), execution_indices=[2])
        assert lois == [loi for loi in batch_lois([run]) if loi.execution_index == 2]
        assert len(lois) == 1
        assert lois[0].execution_index == 2

    def test_toi_fraction_within_bounds(self):
        run = build_run(readings_at=(2.0001, 2.0003, 2.00038))
        for loi in batch_lois([run]):
            assert 0.0 <= loi.toi_fraction <= 1.0
            assert loi.toi_s <= run.executions[0].duration_s * 1.01 + 1e-9

    def test_unsynchronized_extraction_misplaces_lois(self):
        # The naive index-based mapping uses the logger start, which is 3 ms
        # before the kernel; the first sample is then assumed to be at
        # start+1ms, well before the kernel -> different (wrong) attribution.
        run = build_run(readings_at=(2.0002, 2.0006, 2.0009))
        synced = batch_lois([run])
        naive = batch_lois([run], synchronize=False)
        synced_pairs = {(l.execution_index, round(l.toi_s, 7)) for l in synced}
        naive_pairs = {(l.execution_index, round(l.toi_s, 7)) for l in naive}
        assert synced_pairs != naive_pairs


class TestBinning:
    def test_golden_runs_form_largest_cluster(self):
        values = [100.0, 101.0, 100.5, 99.8, 130.0, 99.9, 100.2, 150.0]
        result = ExecutionTimeBinner(0.05).bin(values)
        assert set(result.outlier_indices) == {4, 7}
        assert result.num_selected == 6

    def test_margin_respected(self):
        values = [100.0, 101.0, 103.0, 104.0, 110.0]
        result = ExecutionTimeBinner(0.02).bin(values)
        selected = result.selected_values()
        assert max(selected) <= min(selected) * 1.02 + 1e-9

    def test_all_within_margin_selects_everything(self):
        values = [100.0, 100.5, 100.9]
        result = ExecutionTimeBinner(0.05).bin(values)
        assert result.num_selected == 3
        assert result.num_outliers == 0
        assert result.selection_ratio == pytest.approx(1.0)

    def test_spread_of_selection(self):
        result = ExecutionTimeBinner(0.05).bin([100.0, 102.0, 104.0, 140.0])
        assert result.spread() <= 0.05 + 1e-9

    def test_single_value(self):
        result = ExecutionTimeBinner(0.02).bin([42.0])
        assert result.selected_indices == (0,)

    def test_rejects_empty_or_invalid(self):
        binner = ExecutionTimeBinner(0.05)
        with pytest.raises(ValueError):
            binner.bin([])
        with pytest.raises(ValueError):
            binner.bin([1.0, -2.0])
        with pytest.raises(ValueError):
            ExecutionTimeBinner(0.0)

    def test_bin_around_target_for_outlier_study(self):
        values = [100.0, 101.0, 125.0, 126.0, 99.5]
        result = ExecutionTimeBinner(0.05).bin_around(values, target_s=125.0)
        assert set(result.selected_indices) == {2, 3}

    def test_histogram(self):
        counts, edges = histogram_of_durations([1.0, 1.1, 2.0, 2.1], bins=2)
        assert counts.sum() == 4
        assert len(edges) == 3
        with pytest.raises(ValueError):
            histogram_of_durations([])

    def test_prefers_tighter_cluster_on_tie(self):
        # Two clusters of equal size; the tighter one should win.
        values = [100.0, 100.1, 200.0, 209.0]
        result = ExecutionTimeBinner(0.05).bin(values)
        assert set(result.selected_indices) == {0, 1}

    @pytest.mark.parametrize(
        "bad, complaint",
        [
            (float("nan"), "finite: position 1 is nan"),
            (float("inf"), "finite: position 1 is inf"),
            (-float("inf"), "finite: position 1 is -inf"),
            (0.0, "positive: position 1 is 0.0"),
        ],
    )
    def test_rejects_non_finite_and_non_positive_by_position(self, bad, complaint):
        values = [1e-4, bad, 1.01e-4]
        binner = ExecutionTimeBinner(0.05)
        with pytest.raises(ValueError, match=complaint):
            binner.bin(values)
        with pytest.raises(ValueError, match=complaint):
            binner.extend(values)
        # The rejected batch is not held: the binner still bins cleanly.
        assert binner.num_values == 0
        assert binner.extend([1e-4]).selected_indices == (0,)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_bin_around_rejects_non_finite_by_position(self, bad):
        with pytest.raises(ValueError, match="finite: position 2"):
            ExecutionTimeBinner(0.05).bin_around([100.0, 101.0, bad], target_s=100.0)

    def test_extend_reports_positions_across_batches(self):
        binner = ExecutionTimeBinner(0.05)
        binner.extend([1e-4, 1.01e-4])
        with pytest.raises(ValueError, match="finite: position 3 is nan"):
            binner.extend([1e-4, float("nan")])

    def test_numpy_arrays_accepted(self):
        values = np.array([100.0, 101.0, 125.0, 126.0, 99.5])
        binner = ExecutionTimeBinner(0.05)
        assert binner.bin(values) == binner.bin(values.tolist())
        around = binner.bin_around(values, target_s=125.0)
        assert around == binner.bin_around(values.tolist(), target_s=125.0)
        assert around.selected_indices == (2, 3)
        counts, _ = histogram_of_durations(values, bins=2)
        assert counts.sum() == 5
        with pytest.raises(ValueError):
            binner.bin(np.array([]))
        with pytest.raises(ValueError):
            histogram_of_durations(np.array([]))

    def test_result_keeps_arrays_and_builds_tuples_on_access(self):
        result = ExecutionTimeBinner(0.05).bin([100.0, 130.0, 101.0])
        assert result.selected.tolist() == [0, 2]
        assert result.values.tolist() == [100.0, 130.0, 101.0]
        assert result.selected_indices == (0, 2)
        assert result.outlier_indices == (1,)
        assert result.values_s == (100.0, 130.0, 101.0)
        assert result.num_outliers == 1 and result.selection_ratio == pytest.approx(2 / 3)

    def test_empty_bin_around_results_compare_equal(self):
        binner = ExecutionTimeBinner(0.05)
        empty = binner.bin_around([100.0, 101.0], target_s=300.0)
        assert empty.is_empty and math.isnan(empty.bin_low_s)
        assert empty == binner.bin_around([100.0, 101.0], target_s=300.0)
        assert empty != binner.bin_around([100.0, 102.0], target_s=300.0)
