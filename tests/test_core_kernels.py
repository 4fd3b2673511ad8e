"""The checkpoint-ingest kernel bodies on every available provider.

``repro.core._kernels`` holds the kernel bodies of a checkpoint's ingest:
``k_window`` (the merge and golden-run window of
:meth:`ExecutionTimeBinner.extend`), ``k_match`` (the window-end mapping,
match and LOI gather of :func:`extract_lois_batch`) and ``k_durations``
(:meth:`LOIBatch.execution_durations`).  Each property below runs on the
pure-Python bodies, on the generated C provider (when a C compiler is
present) and on Numba (when installed), and pins them against the
specifications: :meth:`ExecutionTimeBinner.bin`'s scalar scan, one reading
at a time matched by :func:`match_execution` against its own run's
executions (``tests/stitching_spec.py``), and
:meth:`RunRecord.execution_duration`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.binning import ExecutionTimeBinner
from repro.core.records import (
    DelayCalibration,
    ExecutionTiming,
    ExecutionTimings,
    PowerReading,
    PowerReadings,
    RunRecord,
    TimestampAnchor,
)
from repro.core.timesync import (
    NaiveIndexSynchronizer,
    extract_lois_batch,
    match_execution,
    synchronizer_for_run,
)
from repro.gpu import _fastcore_cc, fastcore
from repro.gpu import _fastcore_kernels as K
from stitching_spec import assert_identical_lois, batch_lois, reference_lois

PROVIDERS = ["python"]
if _fastcore_cc.find_compiler() is not None:
    PROVIDERS.append("cc")
if K.HAVE_NUMBA:
    PROVIDERS.append("numba")

_LOADED: dict[str, fastcore.KernelBundle] = {}


@pytest.fixture(params=PROVIDERS)
def provider(request, monkeypatch):
    """Make ``fastcore.kernels()`` hand out one provider for the test."""
    name = request.param
    if name == "python":
        with fastcore.pure_kernels() as bundle:
            monkeypatch.setattr(fastcore, "kernels", lambda: bundle)
            yield bundle
        return
    if name not in _LOADED:
        bundle, error = fastcore._load_provider(name)
        if bundle is None:
            pytest.skip(error)
        _LOADED[name] = bundle
    monkeypatch.setattr(fastcore, "kernels", lambda: _LOADED[name])
    yield _LOADED[name]


PROPERTY = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


# --------------------------------------------------------------------- #
# k_window: ExecutionTimeBinner.extend against bin().
# --------------------------------------------------------------------- #
MARGINS = (1e-9, 0.005, 0.02, 0.05, 0.3)


@st.composite
def extend_schedules(draw):
    """A margin and batches of durations with exact ties, including values
    exactly one margin apart (the window predicate's boundary)."""
    margin = draw(st.sampled_from(MARGINS))
    base = draw(st.sampled_from((1e-4, 4.2e-5, 1.1e-3)))
    pool = [base, base * (1.0 + margin), base * (1.0 + margin) ** 2, base * 1.013, base * 3.0]
    value = st.sampled_from(pool) | st.floats(base * 0.9, base * 1.5)
    batches = draw(st.lists(st.lists(value, max_size=14), min_size=1, max_size=8))
    return margin, batches


class TestWindow:
    @PROPERTY
    @given(schedule=extend_schedules())
    def test_extend_equals_bin(self, provider, schedule):
        margin, batches = schedule
        binner = ExecutionTimeBinner(margin)
        seen: list[float] = []
        for batch in batches:
            seen += batch
            if not seen:
                continue
            result = binner.extend(np.array(batch, dtype=float))
            expected = ExecutionTimeBinner(margin).bin(seen)
            assert result == expected
            assert result.selected_indices == expected.selected_indices
            assert result.outlier_indices == expected.outlier_indices
            assert (result.bin_low_s, result.bin_high_s) == (
                expected.bin_low_s, expected.bin_high_s
            )

    @staticmethod
    def window(provider, held, batch, margin):
        """``k_window`` of ``batch`` into the sorted ``held``: the window and
        the merged positions (batch values at ``len(held)`` onward)."""
        held = np.array(held, dtype=float)
        batch = np.array(batch, dtype=float)
        total = held.shape[0] + batch.shape[0]
        merged = np.empty(total)
        merged_index = np.empty(total, dtype=np.int64)
        window = np.zeros(2, dtype=np.int64)
        provider.window(
            held, np.arange(held.shape[0]), batch, np.argsort(batch, kind="stable"),
            held.shape[0], margin, merged, merged_index, window,
        )
        assert merged.tolist() == sorted([*held.tolist(), *batch.tolist()])
        return window.tolist(), merged_index.tolist()

    def test_boundary_value_stays_in_the_window(self, provider):
        # v1 == v0 * (1 + margin) exactly: the window predicate is strict, so
        # both belong to one window.
        margin = 0.05
        assert self.window(provider, [1e-4, 1e-4 * (1.0 + margin)], [], margin)[0] == [0, 2]

    def test_ties_prefer_the_tighter_then_the_earlier_window(self, provider):
        assert self.window(provider, [100e-6, 100e-6, 200e-6, 209e-6], [], 0.05)[0] == [0, 2]
        assert self.window(provider, [100e-6, 104e-6, 200e-6, 208e-6], [], 0.05)[0] == [0, 2]

    def test_merge_puts_batch_values_ahead_of_equal_held_ones(self, provider):
        window, positions = self.window(provider, [1e-4, 2e-4], [2e-4, 1e-4, 2e-4], 0.05)
        # Batch positions are 2, 3, 4; equal batch values keep their order.
        assert positions == [3, 0, 2, 4, 1]
        assert window == [2, 5]


# --------------------------------------------------------------------- #
# k_match: extract_lois_batch against per-run match_execution.
# --------------------------------------------------------------------- #
COUNTER_HZ = 100e6
EPOCH = 7.25
KEYS = ("xcd", "iod", "hbm")


def make_run(run_index, executions, readings_at, components, columnar):
    """A run with explicit executions (any order, nested or overlapping) and
    readings at chosen CPU times; ``columnar`` stores the compiled engine's
    views (one shared component set) instead of record tuples."""
    ticks = [int(round((t + EPOCH) * COUNTER_HZ)) for t in readings_at]
    if columnar:
        executions_view = ExecutionTimings(
            indices=range(len(executions)),
            starts_s=[start for start, _ in executions],
            ends_s=[end for _, end in executions],
            kernel_names=["synthetic"] * len(executions),
        )
        readings = PowerReadings(
            gpu_timestamp_ticks=ticks,
            window_s=1e-3,
            total_w=[300.0 + i for i in range(len(ticks))],
            component_names=KEYS,
            components_w=[[200.0 + i, 60.0 + i, 40.0 + i] for i in range(len(ticks))],
        )
    else:
        executions_view = tuple(
            ExecutionTiming(index=i, cpu_start_s=start, cpu_end_s=end)
            for i, (start, end) in enumerate(executions)
        )
        readings = tuple(
            PowerReading(
                gpu_timestamp_ticks=tick,
                window_s=1e-3,
                total_w=300.0 + i,
                components={key: 100.0 + i for key in keys},
            )
            for i, (tick, keys) in enumerate(zip(ticks, components))
        )
    anchor_time = min([2.0, *readings_at]) - 1e-3
    return RunRecord(
        run_index=run_index,
        kernel_name="synthetic",
        readings=readings,
        executions=executions_view,
        anchor=TimestampAnchor(
            gpu_ticks=int(round((anchor_time + EPOCH) * COUNTER_HZ)),
            cpu_time_after_s=anchor_time + 10e-6,
            round_trip_s=20e-6,
        ),
        logger_period_s=5e-4,
        counter_frequency_hz=COUNTER_HZ,
        pre_delay_s=0.0,
        # The unsynchronised grid starts at 2.0 and overlaps the executions.
        metadata={"logger_start_cpu_s": 1.9995},
    )


@st.composite
def run_batches(draw):
    """``(runs, synchronize, calibration)``: runs on one shared timeline.

    Executions may overlap, nest, come out of order, share a boundary or be
    absent, and runs overlap each other; some execution boundaries are
    snapped to a reading's exact window end, so the inclusive span test is
    exercised at equality.  Reading component sets are mixed unless a run
    is columnar.
    """
    synchronize = draw(st.booleans())
    calibration = (
        DelayCalibration(mean_round_trip_s=20e-6, std_round_trip_s=1e-6, samples=4)
        if synchronize and draw(st.booleans())
        else None
    )
    spans = st.tuples(st.floats(2.0, 2.004), st.sampled_from((0.0, 2e-5, 1e-4, 7e-4)))
    runs = []
    for run_index in range(draw(st.integers(1, 5))):
        readings_at = sorted(draw(st.lists(st.floats(1.9995, 2.0055), max_size=9)))
        probe = make_run(10 * run_index, [], readings_at, [set()] * len(readings_at), True)
        window_ends = [
            spec_window_end(probe, i, calibration, synchronize) for i in range(len(readings_at))
        ]
        executions = []
        for start, length in draw(st.lists(spans, max_size=5)):
            if window_ends and draw(st.booleans()):
                start = draw(st.sampled_from(window_ends))
            elif executions and draw(st.booleans()):
                start = executions[-1][1]  # back to back
            end = start + length
            if window_ends and draw(st.booleans()):
                end = max(start, draw(st.sampled_from(window_ends)))
            executions.append((start, end))
        if draw(st.booleans()):
            executions.sort()
        components = [draw(st.sets(st.sampled_from(KEYS))) for _ in readings_at]
        columnar = draw(st.booleans())
        runs.append(make_run(10 * run_index, executions, readings_at, components, columnar))
    return runs, synchronize, calibration


def spec_window_end(run, position, calibration, synchronize):
    """The specification's window end of one reading of ``run``."""
    if synchronize:
        ticks = run.readings[position].gpu_timestamp_ticks
        return synchronizer_for_run(run, calibration).cpu_time_of(ticks)
    naive = NaiveIndexSynchronizer(
        logger_start_cpu_s=run.metadata["logger_start_cpu_s"], period_s=run.logger_period_s
    )
    return naive.cpu_time_of_index(position)


def scalar_positions(run, times):
    matched = [match_execution(run.executions, float(t)) for t in times]
    return [-1 if e is None else list(run.executions).index(e) for e in matched]


class TestMatch:
    @PROPERTY
    @given(batch_spec=run_batches())
    def test_batch_equals_per_run_scalar_match(self, provider, batch_spec):
        runs, synchronize, calibration = batch_spec
        lois = reference_lois(runs, calibration, synchronize)
        assert_identical_lois(batch_lois(runs, calibration, synchronize), lois)
        batch = extract_lois_batch(runs, calibration, synchronize)
        for ordinal, run in enumerate(runs):
            times, positions = batch.reading_match(ordinal)
            assert positions.tolist() == scalar_positions(run, times)
        assert batch.toi_s.tolist() == [loi.toi_s for loi in lois]
        assert batch.last_execution_count() == sum(
            1 for loi, ordinal in zip(lois, batch.run_ordinal.tolist())
            if loi.execution_index == len(runs[ordinal].executions) - 1
        )
        for name in ("total", *KEYS):
            expected = [
                loi.power(name) if loi.reading.has_component(name) else math.nan for loi in lois
            ]
            if name not in batch.powers_w:
                assert all(math.isnan(value) for value in expected)
                continue
            got = batch.powers_w[name]
            present = batch.masks.get(name, np.ones(got.shape[0], dtype=bool))
            assert present.tolist() == [not math.isnan(value) for value in expected]
            assert got[present].tolist() == [value for value in expected if not math.isnan(value)]

    def test_reading_matches_only_its_own_run(self, provider):
        # Run 1's reading lies inside run 0's execution span but in no
        # execution of its own.
        runs = [
            make_run(0, [(2.0, 2.01)], [2.003], [set()], columnar=True),
            make_run(1, [(2.004, 2.005)], [2.003], [set()], columnar=True),
        ]
        batch = extract_lois_batch(runs)
        assert batch.run_ordinal.tolist() == [0]
        assert batch.reading_positions.tolist() == [0, -1]

    def test_nested_executions_take_the_scalar_first_match(self, provider):
        # Ends decrease: binary search on them would not find the first match.
        run = make_run(3, [(2.0, 2.004), (2.001, 2.002)], [2.0015, 2.003], [set(), set()], True)
        batch = extract_lois_batch([run])
        assert batch.execution_position.tolist() == [0, 0]

    def test_runs_without_executions_or_readings(self, provider):
        runs = [
            make_run(0, [], [2.001], [set()], columnar=True),
            make_run(1, [(2.0, 2.002)], [], [], columnar=False),
            make_run(2, [(2.0, 2.002)], [2.001], [{"xcd"}], columnar=False),
        ]
        batch = extract_lois_batch(runs)
        assert batch.num_lois == 1
        assert batch.run_ordinal.tolist() == [2]
        assert batch.reading_positions.tolist() == [-1, 0]
        assert batch.execution_offsets.tolist() == [0, 0, 1, 2]


# --------------------------------------------------------------------- #
# k_durations: LOIBatch.execution_durations against the records.
# --------------------------------------------------------------------- #
class TestDurations:
    @PROPERTY
    @given(batch_spec=run_batches())
    def test_durations_equal_the_records(self, provider, batch_spec):
        runs = batch_spec[0]
        batch = extract_lois_batch(runs)
        for which in ("last", 0, 1, 3, 7):
            expected = []
            for run in runs:
                try:
                    expected.append((run.run_index, run.execution_duration(which)))
                except (KeyError, ValueError):
                    continue
            run_indices, durations = batch.execution_durations(which)
            assert list(zip(run_indices.tolist(), durations.tolist())) == expected

    def test_first_occurrence_of_a_repeated_index_counts(self, provider):
        executions = (
            ExecutionTiming(index=2, cpu_start_s=2.0, cpu_end_s=2.001),
            ExecutionTiming(index=2, cpu_start_s=2.002, cpu_end_s=2.0045),
        )
        run = make_run(5, [], [2.0005], [set()], columnar=False)
        run = RunRecord(**{**vars(run), "executions": executions})
        run_indices, durations = extract_lois_batch([run]).execution_durations(2)
        assert run_indices.tolist() == [5]
        assert durations.tolist() == [2.001 - 2.0]
        assert extract_lois_batch([run]).execution_durations(-1)[0].tolist() == []

