"""Equivalence tests: the columnar LOI path vs the pure-Python specification.

Vectorization changes *nothing* about the numbers: LOI extraction, the
stitched LOI ledger (its counts, its lazily built LOI objects and every
profile sliced from it) and the full nine-step profiler must be bit-identical
to one-reading-at-a-time extraction (:func:`extract_lois_reference`) and
object-based profile construction (:func:`profile_from_lois_reference`),
collected in ``tests/stitching_spec.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import ExecutionTimeBinner
from repro.core.profile import ProfileKind
from repro.core.profiler import FinGraVProfiler, ProfilerConfig
from repro.core.records import (
    DelayCalibration,
    ExecutionTiming,
    PowerReading,
    RunRecord,
    TimestampAnchor,
)
from repro.core.stitching import ProfileStitcher
from repro.core import _kernels as CK
from repro.core.timesync import extract_lois_batch, match_execution, synchronizer_for_run
from repro.gpu import fastcore
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm
from stitching_spec import (
    assert_identical_lois,
    assert_profiles_identical,
    batch_lois,
    extract_lois_reference,
    extract_lois_unsynchronized_reference,
    reference_lois,
    reference_profile,
    reference_run_profile,
)

COUNTER_HZ = 100e6
EPOCH_OFFSET = 7.25


def ticks(cpu_time_s: float) -> int:
    return int(round((cpu_time_s + EPOCH_OFFSET) * COUNTER_HZ))


def synthetic_run(
    readings_at, executions_spec, run_index=0, gapless=False, components=None
):
    """Build a run with readings at chosen CPU times and explicit executions.

    ``executions_spec`` is a list of (start, end) tuples; ``gapless`` asserts
    they are back-to-back so boundary ties are exercised.  ``components``
    optionally gives each reading its own component dictionary.
    """
    timing = tuple(
        ExecutionTiming(index=i, cpu_start_s=start, cpu_end_s=end)
        for i, (start, end) in enumerate(executions_spec)
    )
    if gapless:
        for before, after in zip(timing, timing[1:]):
            assert before.cpu_end_s == after.cpu_start_s
    readings = tuple(
        PowerReading(
            gpu_timestamp_ticks=ticks(t),
            window_s=1e-3,
            total_w=300.0 + i,
            components=(
                {"xcd": 200.0 + i, "iod": 60.0, "hbm": 40.0}
                if components is None else components[i]
            ),
        )
        for i, t in enumerate(readings_at)
    )
    first_start = timing[0].cpu_start_s
    anchor = TimestampAnchor(
        gpu_ticks=ticks(first_start - 1e-3),
        cpu_time_after_s=first_start - 1e-3 + 10e-6,
        round_trip_s=20e-6,
    )
    return RunRecord(
        run_index=run_index,
        kernel_name="synthetic",
        readings=readings,
        executions=timing,
        anchor=anchor,
        logger_period_s=1e-3,
        counter_frequency_hz=COUNTER_HZ,
        pre_delay_s=0.0,
        metadata={"logger_start_cpu_s": first_start - 3e-3},
    )


class TestExtractionEquivalence:
    def test_synthetic_run_synchronized(self):
        run = synthetic_run(
            readings_at=(1.99990, 2.00003, 2.00017, 2.00032, 2.00055, 2.00081),
            executions_spec=[(2.0, 2.0002), (2.00025, 2.00045), (2.0005, 2.0007)],
        )
        sync = synchronizer_for_run(run)
        assert_identical_lois(batch_lois([run]), extract_lois_reference(run, sync))

    def test_synthetic_run_with_execution_filter(self):
        run = synthetic_run(
            readings_at=(2.00003, 2.00032, 2.00055),
            executions_spec=[(2.0, 2.0002), (2.00025, 2.00045), (2.0005, 2.0007)],
        )
        sync = synchronizer_for_run(run)
        assert_identical_lois(
            [loi for loi in batch_lois([run]) if loi.execution_index in (1, 2)],
            extract_lois_reference(run, sync, execution_indices=[1, 2]),
        )

    def test_synthetic_run_unsynchronized(self):
        run = synthetic_run(
            readings_at=(2.0001, 2.0003, 2.0006),
            executions_spec=[(2.0, 2.001), (2.0015, 2.0025), (2.003, 2.004)],
        )
        start = float(run.metadata["logger_start_cpu_s"])
        assert_identical_lois(
            batch_lois([run], synchronize=False),
            extract_lois_unsynchronized_reference(run, start),
        )

    def test_empty_readings(self):
        run = synthetic_run(readings_at=(), executions_spec=[(2.0, 2.0002)])
        assert batch_lois([run]) == []
        assert batch_lois([run], synchronize=False) == []

    def test_simulated_records(self, backend):
        kernel = cb_gemm(2048)
        for i in range(6):
            run = backend.run(kernel, executions=25, pre_delay_s=i * 2.3e-4, run_index=i)
            sync = synchronizer_for_run(run)
            assert_identical_lois(batch_lois([run]), extract_lois_reference(run, sync))
            start = float(run.metadata["logger_start_cpu_s"])
            assert_identical_lois(
                batch_lois([run], synchronize=False),
                extract_lois_unsynchronized_reference(run, start),
            )


#: Ticks per second of :func:`kernel_positions`: ``ticks / TICK_HZ`` is the
#: double nearest the decimal, as the literal ``2.0002`` is.
TICK_HZ = 1e5


def kernel_positions(run, times_s):
    """``k_match`` of the active provider on one run: each time's position.

    The run is mapped with a zero anchor and origin, so a reading's window
    end is exactly ``round(t * TICK_HZ) / TICK_HZ`` (``t`` for decimals of at
    most five places).
    """
    ticks = np.rint(np.asarray(times_s) * TICK_HZ).astype(np.int64)
    total = ticks.shape[0]
    starts = np.array([e.cpu_start_s for e in run.executions])
    ends = np.array([e.cpu_end_s for e in run.executions])
    ints = np.empty(CK.I_LEN * total, dtype=np.int64)
    floats = np.empty(CK.F_LEN * total)
    fastcore.kernels().match(
        ticks, np.array([0, total, 0, starts.shape[0]]), np.zeros(2, dtype=np.int64),
        np.array([0.0, TICK_HZ]), 1, 1,
        starts, ends, np.array([e.index for e in run.executions], dtype=np.int64),
        ints, floats,
    )
    assert floats.reshape(CK.F_LEN, total)[CK.F_TIME].tolist() == (ticks / TICK_HZ).tolist()
    return ints.reshape(CK.I_LEN, total)[CK.I_POSITION]


class TestBoundaryMatching:
    def test_shared_boundary_attributed_to_earlier_execution(self):
        # Back-to-back executions: a time exactly on the shared boundary is
        # contained by both; the scalar first-match picks the earlier one.
        run = synthetic_run(
            readings_at=(),
            executions_spec=[(2.0, 2.0002), (2.0002, 2.0004)],
            gapless=True,
        )
        boundary = 2.0002
        scalar = match_execution(run.executions, boundary)
        positions = kernel_positions(run, [boundary])
        assert scalar is run.executions[positions[0]]
        assert positions[0] == 0

    def test_exact_start_and_end_included(self):
        run = synthetic_run(readings_at=(), executions_spec=[(2.0, 2.0002)])
        positions = kernel_positions(run, [2.0, 2.0002, 1.9999, 2.00021])
        assert positions.tolist() == [0, 0, -1, -1]

    def test_idle_times_marked_minus_one(self):
        run = synthetic_run(
            readings_at=(),
            executions_spec=[(2.0, 2.0002), (2.0005, 2.0007)],
        )
        positions = kernel_positions(run, [2.0003, 2.00045])
        assert positions.tolist() == [-1, -1]

    def test_matches_scalar_on_dense_grid(self):
        run = synthetic_run(
            readings_at=(),
            executions_spec=[(2.0, 2.0002), (2.0002, 2.00045), (2.0005, 2.0007)],
        )
        grid = np.arange(199950, 200086) / TICK_HZ
        positions = kernel_positions(run, grid)
        for t, position in zip(grid, positions):
            scalar = match_execution(run.executions, float(t))
            if scalar is None:
                assert position == -1
            else:
                assert run.executions[position] is scalar


def sequential_runs(count=3, base=2.0):
    return [
        synthetic_run(
            readings_at=(t + 0.00003, t + 0.00017, t + 0.0005),
            executions_spec=[(t, t + 0.0002), (t + 0.00025, t + 0.00045)],
            run_index=i,
        )
        for i, t in enumerate(base + np.arange(count))
    ]


def overlapping_runs():
    # Run 0's execution span covers run 1's entirely; concatenated starts
    # and ends are still sorted, but one binary search over both runs could
    # not reproduce per-run semantics.
    return [
        synthetic_run(readings_at=(2.007,), executions_spec=[(2.0, 2.010)], run_index=0),
        synthetic_run(readings_at=(2.003,), executions_spec=[(2.002, 2.0105)], run_index=1),
        synthetic_run(readings_at=(), executions_spec=[(2.005, 2.012)], run_index=2),
    ]


def scalar_positions(run, times):
    """Each time's position in ``run.executions`` by the scalar first match."""
    matched = [match_execution(run.executions, float(t)) for t in times]
    return [-1 if e is None else run.executions.index(e) for e in matched]


class TestBatchExtraction:
    def test_batch_matches_per_run_on_sequential_runs(self):
        runs = sequential_runs()
        batch = extract_lois_batch(runs)
        series = ProfileStitcher().collect(runs)
        for ordinal, run in enumerate(runs):
            sync = synchronizer_for_run(run)
            assert_identical_lois(
                series.lois_by_run[run.run_index], extract_lois_reference(run, sync)
            )
            times, positions = batch.reading_match(ordinal)
            expected = [sync.cpu_time_of(r.gpu_timestamp_ticks) for r in run.readings]
            assert times.tolist() == expected
            assert positions.tolist() == scalar_positions(run, times)

    def test_overlapping_run_spans_match_per_run(self):
        runs = overlapping_runs()
        batch = extract_lois_batch(runs)
        # Each reading matches its own run's executions only, though every
        # time also falls inside another run's span.
        for ordinal, run in enumerate(runs):
            times, positions = batch.reading_match(ordinal)
            assert positions.tolist() == scalar_positions(run, times)
        series = ProfileStitcher().collect(runs)
        assert_identical_lois(series.all_lois(), reference_lois(runs))
        assert series.num_lois == 2

    def test_stitcher_falls_back_for_overlapping_runs(self):
        overlapping = overlapping_runs()[:2]
        series = ProfileStitcher().collect(overlapping)
        sync = synchronizer_for_run(overlapping[0])
        assert_identical_lois(
            list(series.lois_by_run[0]), extract_lois_reference(overlapping[0], sync)
        )


SECTIONS = ("ssp", "sse", "execution", "tail", "run")


def assert_ledger_matches_spec(
    runs, golden_runs=None, components=("total", "xcd", "iod", "hbm"),
    calibration=None, synchronize=True,
):
    """Every ledger view of ``runs`` equals the object-walk specification."""
    stitcher = ProfileStitcher(
        components=components, calibration=calibration, synchronize=synchronize
    )
    series = stitcher.collect(runs[:1])
    for start in range(1, len(runs), 2):
        stitcher.extend(series, runs[start:start + 2])
    spec = dict(components=components, calibration=calibration, synchronize=synchronize)
    lois = reference_lois(runs, calibration, synchronize)
    assert_identical_lois(series.all_lois(), lois)
    assert series.num_lois == len(lois)
    for run in runs:
        expected = [loi for loi in lois if loi.run_index == run.run_index]
        assert_identical_lois(series.lois_by_run[run.run_index], expected)
    last = {run.run_index: run.executions[-1].index for run in runs if run.executions}
    assert_identical_lois(
        series.lois_for_last_execution(),
        [loi for loi in lois if loi.execution_index == last[loi.run_index]],
    )
    golden = set(golden_runs) if golden_runs is not None else None
    for index in (0, 1, 2):
        assert_identical_lois(
            series.lois_for_execution(index), [l for l in lois if l.execution_index == index]
        )
        assert_identical_lois(
            series.lois_from_execution(index), [l for l in lois if l.execution_index >= index]
        )
        assert series.count_lois(execution_index=index, golden_runs=golden_runs) == sum(
            1 for l in lois
            if l.execution_index == index and (golden is None or l.run_index in golden)
        )
    assert series.count_last_execution_lois(golden_runs) == sum(
        1 for l in lois
        if l.execution_index == last[l.run_index] and (golden is None or l.run_index in golden)
    )
    assert_profiles_identical(
        stitcher.ssp_profile(series, golden_runs),
        reference_profile(runs, ProfileKind.SSP, golden_runs=golden_runs, **spec),
    )
    assert_profiles_identical(
        stitcher.ssp_profile(series, golden_runs, min_execution_index=1),
        reference_profile(
            runs, ProfileKind.SSP, golden_runs=golden_runs, min_execution_index=1, **spec
        ),
    )
    assert_profiles_identical(
        stitcher.sse_profile(series, 0, golden_runs),
        reference_profile(
            runs, ProfileKind.SSE, golden_runs=golden_runs, execution_index=0, **spec
        ),
    )
    assert_profiles_identical(
        stitcher.execution_profile(series, 1, golden_runs),
        reference_profile(
            runs, ProfileKind.CUSTOM, golden_runs=golden_runs, execution_index=1, **spec
        ),
    )
    for include_idle in (True, False):
        assert_profiles_identical(
            stitcher.run_profile(series, golden_runs, include_idle),
            reference_run_profile(
                runs, golden_runs=golden_runs, include_idle=include_idle, **spec
            ),
        )


@pytest.fixture(scope="module")
def calibrated_records():
    backend = SimulatedDeviceBackend(seed=91)
    kernel = cb_gemm(2048)
    runs = [
        backend.run(kernel, executions=12, pre_delay_s=(i % 5) * 2.1e-4, run_index=i)
        for i in range(9)
    ]
    return runs, backend.calibrate_read_delay(8)


class TestLedgerEquivalence:
    def test_compiled_records(self, calibrated_records):
        runs, calibration = calibrated_records
        assert_ledger_matches_spec(runs, calibration=calibration)
        assert_ledger_matches_spec(runs, golden_runs=[0, 3, 4, 8], calibration=calibration)

    def test_reference_engine_records(self):
        backend = SimulatedDeviceBackend(seed=92, config=BackendConfig(engine="reference"))
        runs = [
            backend.run(cb_gemm(2048), executions=8, pre_delay_s=i * 1.7e-4, run_index=i)
            for i in range(5)
        ]
        assert isinstance(runs[0].readings, tuple) and isinstance(runs[0].executions, tuple)
        assert_ledger_matches_spec(runs, golden_runs=[1, 2, 4])

    def test_unsynchronized_mapping(self, calibrated_records):
        runs, _ = calibrated_records
        assert_ledger_matches_spec(runs, synchronize=False)
        assert_ledger_matches_spec(runs, golden_runs=[2, 5], synchronize=False)

    def test_overlapping_runs(self):
        assert_ledger_matches_spec(overlapping_runs())
        nested = synthetic_run(
            readings_at=(2.00005, 2.00012, 2.0003),
            executions_spec=[(2.0, 2.0004), (2.0001, 2.0002), (2.00035, 2.0005)],
            run_index=7,
        )
        assert_ledger_matches_spec(sequential_runs(2) + [nested])

    def test_mixed_component_sets(self):
        components = [
            {"xcd": 210.0, "iod": 60.0},
            {"xcd": 211.0, "hbm": 41.0, "soc": 9.0},
            {},
            {"xcd": 212.0, "iod": 61.0, "hbm": 42.0},
        ]
        runs = [
            synthetic_run(
                readings_at=(t + 0.00003, t + 0.00017, t + 0.0003, t + 0.0005),
                executions_spec=[(t, t + 0.0002), (t + 0.00025, t + 0.00045)],
                run_index=i,
                components=components[i % 2:] + components[: i % 2],
            )
            for i, t in enumerate((2.0, 3.0, 4.0))
        ]
        uniform = sequential_runs(2, base=5.0)
        uniform = [dataclasses.replace(run, run_index=10 + run.run_index) for run in uniform]
        for components_kept in (("total", "xcd", "iod", "hbm"), ("total", "hbm", "soc")):
            assert_ledger_matches_spec(runs + uniform, components=components_kept)
            assert_ledger_matches_spec(uniform + runs, components=components_kept)


@st.composite
def run_batches(draw):
    """Sequential runs with random readings, executions and component sets."""
    runs, t = [], 2.0
    for run_index in range(draw(st.integers(1, 5))):
        executions, cursor = [], t
        for _ in range(draw(st.integers(0, 4))):
            cursor += draw(st.sampled_from((0.0, 1e-5, 4e-5)))
            length = draw(st.sampled_from((0.0, 3e-5, 1.1e-4, 2e-4)))
            executions.append((cursor, cursor + length))
            cursor += length
        readings = sorted(
            draw(st.lists(st.floats(t - 1e-4, cursor + 1e-4), max_size=8))
        )
        keys = ("xcd", "iod", "hbm")
        components = [
            {key: 100.0 + i for key in draw(st.sets(st.sampled_from(keys)))}
            for i in range(len(readings))
        ]
        if executions:
            runs.append(synthetic_run(
                readings_at=readings, executions_spec=executions,
                run_index=run_index, components=components,
            ))
        t = cursor + draw(st.sampled_from((0.0, 1e-3)))
    return runs


class TestLedgerProperties:
    @given(runs=run_batches(), synchronize=st.booleans(), golden=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_ledger_matches_spec_on_generated_runs(self, runs, synchronize, golden):
        if not runs:
            return
        golden_runs = [run.run_index for run in runs[::2]] if golden else None
        calibration = DelayCalibration(
            mean_round_trip_s=20e-6, std_round_trip_s=1e-6, samples=4
        )
        assert_ledger_matches_spec(
            runs, golden_runs=golden_runs, synchronize=synchronize,
            calibration=calibration if synchronize else None,
        )


class TestProfilerEquivalence:
    @pytest.fixture(scope="class")
    def result(self):
        backend = SimulatedDeviceBackend(spec=mi300x_spec(), seed=31)
        profiler = FinGraVProfiler(
            backend, ProfilerConfig(seed=311, max_additional_runs=80)
        )
        return profiler.profile(cb_gemm(2048), runs=12)

    @pytest.mark.parametrize("attribute", ["ssp_profile", "sse_profile", "run_profile"])
    def test_profiles_bit_identical(self, result, attribute):
        runs, golden = list(result.runs), list(result.golden_run_indices)
        spec = dict(golden_runs=golden, calibration=result.calibration)
        expected = {
            "ssp_profile": lambda: reference_profile(
                runs, ProfileKind.SSP, min_execution_index=result.plan.ssp_index, **spec
            ),
            "sse_profile": lambda: reference_profile(
                runs, ProfileKind.SSE, execution_index=result.plan.sse_index, **spec
            ),
            "run_profile": lambda: reference_run_profile(runs, **spec),
        }[attribute]()
        assert_profiles_identical(getattr(result, attribute), expected)

    def test_same_runs_and_golden_selection(self, result):
        durations = [run.ssp_execution.duration_s for run in result.runs]
        binning = ExecutionTimeBinner(result.binning.margin).bin(durations)
        assert result.golden_run_indices == tuple(
            result.runs[i].run_index for i in binning.selected_indices
        )
        assert result.num_runs == len(result.runs) >= 12
        assert result.ssp_loi_count == len(result.ssp_profile) > 0


class TestConfigOverrides:
    def test_zero_adjacent_margin_override_not_ignored(self, backend):
        # A tiny but explicit binning margin must not fall back to guidance.
        profiler = FinGraVProfiler(
            backend,
            ProfilerConfig(
                seed=3,
                binning_margin=1e-9,
                max_additional_runs=0,
                refine_ssp_with_power_search=False,
            ),
        )
        result = profiler.profile(cb_gemm(4096), runs=8)
        assert result.binning is not None
        assert result.binning.margin == 1e-9
