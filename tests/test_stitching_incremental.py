"""Tests for the incremental StitchedRunSeries and ProfileStitcher.extend."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.records import ExecutionTimings, ReadingColumns
from repro.core.stitching import ProfileStitcher, StitchedRunSeries
from repro.gpu.backend import SimulatedDeviceBackend
from repro.kernels.workloads import cb_gemm
from stitching_spec import object_walk_execution_time


@pytest.fixture(scope="module")
def records():
    backend = SimulatedDeviceBackend(seed=77)
    kernel = cb_gemm(2048)
    return [
        backend.run(kernel, executions=20, pre_delay_s=(i % 4) * 2.7e-4, run_index=i)
        for i in range(10)
    ]


def series_state(series: StitchedRunSeries):
    return (
        series.kernel_name,
        dict(series.lois_by_run),
        sorted(series.runs),
        [
            (loi.run_index, loi.execution_index, loi.window_end_cpu_s, loi.toi_s)
            for loi in series.all_lois()
        ],
    )


class TestExecutionTime:
    @pytest.fixture(scope="class")
    def mixed_records(self):
        # 6, 11 and 16 executions per run: index 7 exists only in the longer
        # runs and index 15 only in the longest (the KeyError branch).
        backend = SimulatedDeviceBackend(seed=78)
        kernel = cb_gemm(2048)
        return [
            backend.run(
                kernel, executions=6 + 5 * (i % 3), pre_delay_s=(i % 4) * 2.7e-4, run_index=i
            )
            for i in range(12)
        ]

    @pytest.mark.parametrize("columnar", [True, False])
    def test_matches_object_walk_bit_for_bit(self, mixed_records, columnar):
        if columnar:
            records = mixed_records
            assert isinstance(records[0].executions, ExecutionTimings)
        else:
            records = [
                dataclasses.replace(run, executions=tuple(run.executions))
                for run in mixed_records
            ]
        stitcher = ProfileStitcher()
        series = stitcher.collect(records[:5])
        for start, end in ((5, 5), (5, 9), (9, 12)):
            # Every snapshot, as the session takes them between batches.
            stitcher.extend(series, records[start:end])
            for which in ("last", 0, 7, 15, 99):
                for golden in (None, [0, 2, 3, 7, 11], []):
                    assert ProfileStitcher._execution_time(
                        series, golden, which
                    ) == object_walk_execution_time(series.runs.values(), golden, which)

    def test_run_record_execution_duration(self, mixed_records):
        run = mixed_records[2]
        plain = dataclasses.replace(run, executions=tuple(run.executions))
        for record in (run, plain):
            assert record.execution_duration("last") == record.last_execution.duration_s
            for index in (0, 7, 15):
                assert record.execution_duration(index) == record.execution(index).duration_s
            with pytest.raises(KeyError):
                record.execution_duration(99)
        empty = dataclasses.replace(run, executions=ExecutionTimings.from_blocks(
            [("k", 0, 0)], np.empty(0), np.empty(0)))
        with pytest.raises(ValueError):
            empty.execution_duration("last")

    def test_durations_extend_incrementally(self, mixed_records):
        stitcher = ProfileStitcher()
        series = stitcher.collect(mixed_records[:4])
        run_indices, durations = series.execution_durations(15)
        assert (run_indices.tolist(), durations.tolist()) == (
            [2], [mixed_records[2].execution(15).duration_s]
        )
        stitcher.extend(series, mixed_records[4:9])
        run_indices, durations = series.execution_durations(15)
        assert run_indices.tolist() == [2, 5, 8]
        assert durations.tolist() == [
            mixed_records[i].execution(15).duration_s for i in run_indices.tolist()
        ]


class TestExtend:
    def test_extend_matches_collect_from_scratch(self, records):
        stitcher = ProfileStitcher()
        full = stitcher.collect(records)
        partial = stitcher.collect(records[:4])
        extended = stitcher.extend(partial, records[4:])
        assert extended is partial
        assert series_state(extended) == series_state(full)

    def test_extend_in_batches(self, records):
        stitcher = ProfileStitcher()
        series = stitcher.collect(records[:3])
        for start in range(3, len(records), 2):
            stitcher.extend(series, records[start:start + 2])
        assert series_state(series) == series_state(stitcher.collect(records))

    def test_extend_only_extracts_new_runs(self, records, monkeypatch):
        import repro.core.stitching as stitching_module

        stitcher = ProfileStitcher()
        series = stitcher.collect(records[:5])
        extracted = []
        original_batch = stitching_module.extract_lois_batch

        def counting_batch(runs, **kwargs):
            extracted.extend(run.run_index for run in runs)
            return original_batch(runs, **kwargs)

        monkeypatch.setattr(stitching_module, "extract_lois_batch", counting_batch)
        stitcher.extend(series, records[5:])
        assert extracted == [run.run_index for run in records[5:]]

    def test_duplicate_run_rejected(self, records):
        stitcher = ProfileStitcher()
        series = stitcher.collect(records[:2])
        with pytest.raises(ValueError):
            stitcher.extend(series, records[:1])

    def test_profiles_unchanged_by_incremental_construction(self, records):
        stitcher = ProfileStitcher()
        full = stitcher.collect(records)
        incremental = stitcher.collect(records[:6])
        stitcher.extend(incremental, records[6:])
        for build in (stitcher.ssp_profile, stitcher.run_profile):
            a, b = build(full), build(incremental)
            assert np.array_equal(a.times(), b.times())
            assert np.array_equal(a.series(), b.series())


class TestCountingViews:
    def test_counts_match_list_filters(self, records):
        series = ProfileStitcher().collect(records)
        lois = series.all_lois()
        assert series.num_lois == len(lois)
        golden = {records[i].run_index for i in (0, 2, 4, 6)}
        for min_index in (0, 5, 12):
            expected = sum(
                1 for loi in lois
                if loi.execution_index >= min_index and loi.run_index in golden
            )
            assert series.count_lois(
                min_execution_index=min_index, golden_runs=golden
            ) == expected
        for exec_index in (3, 19):
            expected = sum(1 for loi in lois if loi.execution_index == exec_index)
            assert series.count_lois(execution_index=exec_index) == expected

    def test_last_execution_counts(self, records):
        series = ProfileStitcher().collect(records)
        assert series.count_last_execution_lois() == len(series.lois_for_last_execution())
        golden = {records[0].run_index, records[1].run_index}
        expected = sum(
            1 for loi in series.lois_for_last_execution() if loi.run_index in golden
        )
        assert series.count_last_execution_lois(golden) == expected

    def test_counts_refresh_after_extend(self, records):
        stitcher = ProfileStitcher()
        series = stitcher.collect(records[:5])
        before = series.count_lois()
        assert before == series.num_lois
        stitcher.extend(series, records[5:])
        assert series.count_lois() == series.num_lois
        assert series.count_lois() >= before

    def test_lois_from_execution_matches_filter(self, records):
        series = ProfileStitcher().collect(records)
        for min_index in (0, 7, 19):
            expected = [
                loi for loi in series.all_lois() if loi.execution_index >= min_index
            ]
            assert series.lois_from_execution(min_index) == expected


class TestColumnarCaches:
    def test_reading_columns_cached_per_record(self, records):
        run = records[0]
        assert run.reading_columns() is run.reading_columns()

    def test_reading_columns_values(self, records):
        run = records[0]
        columns = run.reading_columns()
        assert columns.num_readings == len(run.readings)
        assert columns.uniform_components
        np.testing.assert_array_equal(
            columns.gpu_timestamp_ticks,
            np.asarray([r.gpu_timestamp_ticks for r in run.readings]),
        )
        np.testing.assert_array_equal(
            columns.powers_w["total"], np.asarray([r.total_w for r in run.readings])
        )
        np.testing.assert_array_equal(
            columns.powers_w["xcd"],
            np.asarray([r.components["xcd"] for r in run.readings]),
        )

    def test_empty_reading_columns(self):
        columns = ReadingColumns.from_readings(())
        assert columns.num_readings == 0
        assert columns.uniform_components

