"""The executable specification the LOI ledger is pinned against.

Everything here walks record objects one at a time: LOIs come from
:func:`extract_lois_reference` (or its unsynchronised twin), SSP/SSE
profiles from :func:`profile_from_lois_reference`, whole-run profiles from
one :class:`ProfilePoint` per reading with a linear execution scan, and
execution times from the timing objects' ``duration_s``.  The batch
extractor and the stitcher's columnar results must match these bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.profile import (
    FineGrainProfile,
    ProfileKind,
    ProfilePoint,
    profile_from_lois_reference,
)
from repro.core.records import COMPONENT_KEYS, LogOfInterest
from repro.core.stitching import mean_duration_or_zero
from repro.core.timesync import (
    NaiveIndexSynchronizer,
    extract_lois_batch,
    loi_object,
    match_execution,
    synchronizer_for_run,
)


def logger_start(run) -> float:
    return float(run.metadata.get("logger_start_cpu_s", run.anchor.cpu_time_after_s))


def _reference_loi(run_index, reading, window_end_cpu_s, execution) -> LogOfInterest:
    toi = window_end_cpu_s - execution.cpu_start_s
    duration = execution.duration_s
    fraction = toi / duration if duration > 0 else 0.0
    return LogOfInterest(
        run_index=run_index,
        execution_index=execution.index,
        reading=reading,
        window_end_cpu_s=window_end_cpu_s,
        toi_s=toi,
        toi_fraction=min(max(fraction, 0.0), 1.0),
    )


def _reference_walk(run, window_ends, execution_indices):
    wanted = set(execution_indices) if execution_indices is not None else None
    lois = []
    for reading, window_end in zip(run.readings, window_ends):
        execution = match_execution(run.executions, window_end)
        if execution is None:
            continue
        if wanted is not None and execution.index not in wanted:
            continue
        lois.append(_reference_loi(run.run_index, reading, window_end, execution))
    return lois


def extract_lois_reference(run, synchronizer, execution_indices=None):
    """One run's LOIs: one reading at a time, one linear execution scan each.

    A reading is an LOI when its averaging-window end, mapped to CPU time,
    falls inside an execution; ``execution_indices`` optionally keeps only
    the LOIs of those executions.
    """
    window_ends = [synchronizer.cpu_time_of(r.gpu_timestamp_ticks) for r in run.readings]
    return _reference_walk(run, window_ends, execution_indices)


def extract_lois_unsynchronized_reference(run, logger_start_cpu_s, execution_indices=None):
    """:func:`extract_lois_reference` with the naive index-based mapping."""
    naive = NaiveIndexSynchronizer(
        logger_start_cpu_s=logger_start_cpu_s, period_s=run.logger_period_s
    )
    window_ends = [naive.cpu_time_of_index(i) for i in range(len(run.readings))]
    return _reference_walk(run, window_ends, execution_indices)


def batch_lois(runs, calibration=None, synchronize=True):
    """The LOI objects of :func:`extract_lois_batch`, one per ledger row."""
    batch = extract_lois_batch(runs, calibration, synchronize)
    return [
        loi_object(runs[ordinal], reading, execution, window_end)
        for ordinal, reading, execution, window_end in zip(
            batch.run_ordinal.tolist(),
            batch.reading_position.tolist(),
            batch.execution_position.tolist(),
            batch.window_end_s.tolist(),
        )
    ]


def reference_lois(runs, calibration=None, synchronize=True):
    """Every run's LOIs, one reading and one execution scan at a time."""
    lois = []
    for run in runs:
        if synchronize:
            lois.extend(extract_lois_reference(run, synchronizer_for_run(run, calibration)))
        else:
            lois.extend(extract_lois_unsynchronized_reference(run, logger_start(run)))
    return lois


def object_walk_execution_time(runs, golden_runs, which):
    """Mean duration of execution ``which`` ("last" or an index) over runs."""
    selected = set(golden_runs) if golden_runs is not None else None
    durations = []
    for run in runs:
        if selected is not None and run.run_index not in selected:
            continue
        if not run.executions:
            continue
        if which == "last":
            durations.append(run.last_execution.duration_s)
        else:
            try:
                durations.append(run.execution(int(which)).duration_s)
            except KeyError:
                continue
    return mean_duration_or_zero(durations)


def reference_profile(
    runs, kind, *, golden_runs=None, execution_index=None, min_execution_index=None,
    components=COMPONENT_KEYS, calibration=None, synchronize=True,
):
    """SSP/SSE-style profile of the selected LOIs, built from objects.

    With neither ``execution_index`` nor ``min_execution_index`` the LOIs of
    each run's last execution are selected (the default SSP profile).
    """
    last = {run.run_index: run.executions[-1].index for run in runs if run.executions}
    if execution_index is not None:
        which, keep = execution_index, lambda loi: loi.execution_index == execution_index
    elif min_execution_index is not None:
        which, keep = min_execution_index, lambda loi: loi.execution_index >= min_execution_index
    else:
        which, keep = "last", lambda loi: loi.execution_index == last[loi.run_index]
    selected = set(golden_runs) if golden_runs is not None else None
    lois = [
        loi for loi in reference_lois(runs, calibration, synchronize)
        if keep(loi) and (selected is None or loi.run_index in selected)
    ]
    return profile_from_lois_reference(
        runs[0].kernel_name, kind, lois,
        object_walk_execution_time(runs, golden_runs, which),
        components=components,
    )


def reference_run_profile(
    runs, *, golden_runs=None, components=COMPONENT_KEYS, calibration=None,
    synchronize=True, include_idle=True,
):
    """Whole-run profile: one point per reading, time from the first start."""
    selected = set(golden_runs) if golden_runs is not None else None
    points, spans = [], []
    for run in runs:
        if (selected is not None and run.run_index not in selected) or not run.executions:
            continue
        origin = run.first_execution.cpu_start_s
        spans.append(run.last_execution.cpu_end_s - origin)
        synchronizer = synchronizer_for_run(run, calibration)
        for i, reading in enumerate(run.readings):
            if synchronize:
                window_end = synchronizer.cpu_time_of(reading.gpu_timestamp_ticks)
            else:
                window_end = logger_start(run) + (i + 1) * run.logger_period_s
            if not include_idle and not (
                run.first_execution.cpu_start_s <= window_end <= run.last_execution.cpu_end_s
            ):
                continue
            execution = match_execution(run.executions, window_end)
            points.append(
                ProfilePoint(
                    time_s=window_end - origin,
                    powers_w={
                        component: reading.component(component)
                        for component in components if reading.has_component(component)
                    },
                    run_index=run.run_index,
                    execution_index=execution.index if execution is not None else -1,
                )
            )
    return FineGrainProfile(
        runs[0].kernel_name, ProfileKind.RUN, points, mean_duration_or_zero(spans)
    )


def assert_identical_lois(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.run_index == b.run_index
        assert a.execution_index == b.execution_index
        assert a.window_end_cpu_s == b.window_end_cpu_s
        assert a.toi_s == b.toi_s
        assert a.toi_fraction == b.toi_fraction
        assert a.reading is b.reading


def assert_profiles_identical(a: FineGrainProfile, b: FineGrainProfile) -> None:
    assert len(a) == len(b)
    assert a.kind == b.kind
    assert a.execution_time_s == b.execution_time_s
    assert np.array_equal(a.times(), b.times())
    assert a.components == b.components
    for component in a.components:
        assert np.array_equal(a.series(component), b.series(component), equal_nan=True)
        mask_a, mask_b = a.component_mask(component), b.component_mask(component)
        assert (mask_a is None) == (mask_b is None)
        if mask_a is not None:
            assert np.array_equal(mask_a, mask_b)
    assert a.run_indices() == b.run_indices()
    assert np.array_equal(a.columns().execution_index, b.columns().execution_index)
    assert a.to_rows() == b.to_rows()
