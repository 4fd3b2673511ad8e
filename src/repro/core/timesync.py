"""CPU-GPU time synchronisation and LOI/TOI identification (paper S2).

The on-GPU power logger tags samples with GPU timestamp-counter values and is
agnostic of kernel start/end events, which the host observes in its own clock
domain.  FinGraV bridges the two domains with a single anchor per run -- a GPU
timestamp read from the CPU just before the executions -- plus a separately
benchmarked read delay:

    capture_cpu_time ~= cpu_time_after_read - round_trip + one_way_delay
    cpu_time(ticks)  = capture_cpu_time + (ticks - anchor_ticks) / counter_hz

With the mapping in hand, each power reading's averaging window can be placed
on the CPU timeline, matched to the execution it overlaps (the log of
interest, LOI) and to the position within that execution where the window
ended (the time of interest, TOI).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .records import (
    DelayCalibration,
    ExecutionTiming,
    ExecutionTimings,
    LogOfInterest,
    PowerReading,
    ReadingColumns,
    RunRecord,
    TimestampAnchor,
)


@dataclass(frozen=True)
class ClockSynchronizer:
    """Maps GPU timestamp-counter ticks to CPU time for one run."""

    anchor: TimestampAnchor
    counter_frequency_hz: float
    calibration: DelayCalibration | None = None

    def __post_init__(self) -> None:
        if self.counter_frequency_hz <= 0:
            raise ValueError("counter frequency must be positive")

    @property
    def anchor_capture_cpu_s(self) -> float:
        """Estimated CPU time at which the anchor ticks were captured on the GPU.

        The host observed the read *returning* at ``cpu_time_after_s`` after a
        measured ``round_trip_s``; the capture happened roughly one calibrated
        one-way delay after the read was issued.  Without a calibration we
        fall back to the midpoint of the round trip.
        """
        issue_time = self.anchor.cpu_time_after_s - self.anchor.round_trip_s
        if self.calibration is not None:
            return issue_time + self.calibration.one_way_delay_s
        return issue_time + self.anchor.round_trip_s / 2.0

    def cpu_time_of(self, gpu_ticks: int) -> float:
        """CPU time corresponding to a GPU timestamp-counter value."""
        delta_ticks = gpu_ticks - self.anchor.gpu_ticks
        return self.anchor_capture_cpu_s + delta_ticks / self.counter_frequency_hz

    def gpu_ticks_of(self, cpu_time_s: float) -> int:
        """Inverse mapping (useful for tests and for window placement)."""
        delta_s = cpu_time_s - self.anchor_capture_cpu_s
        return self.anchor.gpu_ticks + int(round(delta_s * self.counter_frequency_hz))


@dataclass(frozen=True)
class NaiveIndexSynchronizer:
    """The *unsynchronised* baseline mapping (paper Figure 5, red profile).

    A common shortcut is to ignore the GPU timestamps entirely and assume the
    k-th sample in the collected buffer was taken k sampling periods after the
    host started the logger.  Because the logger free-runs on its own grid
    (and because of the CPU-GPU launch path), this mis-places samples by up to
    a full sampling period, attributing power to the wrong executions.
    """

    logger_start_cpu_s: float
    period_s: float

    def cpu_time_of_index(self, sample_index: int) -> float:
        if sample_index < 0:
            raise ValueError("sample index must be non-negative")
        return self.logger_start_cpu_s + (sample_index + 1) * self.period_s


def match_execution(
    executions: Sequence[ExecutionTiming], cpu_time_s: float
) -> ExecutionTiming | None:
    """Return the execution whose span contains ``cpu_time_s`` (None if idle)."""
    for execution in executions:
        if execution.contains(cpu_time_s):
            return execution
    return None


def match_execution_positions(run: RunRecord, cpu_times_s: np.ndarray) -> np.ndarray:
    """Vectorized :func:`match_execution` over an array of CPU times.

    Returns, for every time, the position into ``run.executions`` of the
    execution whose (inclusive) span contains it, or ``-1`` when the time
    falls into idle.  Each time is matched against the sorted execution
    start/end arrays with one :func:`np.searchsorted`; a time landing exactly
    on a boundary shared by two back-to-back executions is attributed to the
    earlier one, matching the scalar first-match semantics for chronologically
    ordered executions.
    """
    times = np.asarray(cpu_times_s, dtype=float)
    result = np.full(times.shape, -1, dtype=np.int64)
    if not run.executions or times.size == 0:
        return result
    cols = run.execution_columns()
    starts, ends = cols.starts_s, cols.ends_s
    if cols.num_executions > 1 and bool(
        np.any(np.diff(ends) < 0)
        or np.any(cols.positions != np.arange(cols.num_executions))
    ):
        # Nested executions or a non-chronological tuple: binary search cannot
        # reproduce first-match semantics, fall back to the scalar scan.
        for i, t in enumerate(times):
            execution = match_execution(run.executions, float(t))
            if execution is not None:
                result[i] = run.executions.index(execution)
        return result
    pos = _first_containing_positions(starts, ends, times)
    valid = pos >= 0
    result[valid] = cols.positions[pos[valid]]
    return result


def _first_containing_positions(
    starts: np.ndarray, ends: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Index of the first execution containing each time (-1 when none).

    ``starts`` and ``ends`` must both be non-decreasing and non-empty
    (host-observed back-to-back executions may *slightly* overlap because of
    observation jitter, but their ends stay ordered).  The executions ending
    at or after a time are then a suffix, found by one binary search on the
    ends; its first execution contains the time exactly when it starts at or
    before it -- every later one starts no earlier.  That is the scalar first
    match, including shared-boundary and small-overlap cases.
    """
    first = ends.searchsorted(times, side="left")
    last = ends.shape[0] - 1
    found = (first <= last) & (starts[np.minimum(first, last)] <= times)
    return np.where(found, first, -1)


def _loi_from(
    run_index: int,
    reading: PowerReading,
    window_end_cpu_s: float,
    execution: ExecutionTiming,
) -> LogOfInterest:
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


def _execution_table(run: RunRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indices, starts, ends)`` of a run's executions in record order.

    Columnar timings are adopted as-is; a tuple of timing objects is read
    attribute by attribute.
    """
    executions = run.executions
    if isinstance(executions, ExecutionTimings):
        return executions.indices, executions.starts_s, executions.ends_s
    n = len(executions)
    return (
        np.fromiter(map(attrgetter("index"), executions), dtype=np.int64, count=n),
        np.fromiter(map(attrgetter("cpu_start_s"), executions), dtype=float, count=n),
        np.fromiter(map(attrgetter("cpu_end_s"), executions), dtype=float, count=n),
    )


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


@dataclass(eq=False)
class LOIBatch:
    """The logs of interest of a batch of runs, as parallel arrays.

    Per LOI (one row each, in run order and then reading order):
    ``run_ordinal`` is the run's position in the batch, ``execution_index``
    and ``execution_position`` the matched execution's index and its
    position in ``run.executions``, ``last_execution`` the index of the run's
    last execution, ``reading_position`` the reading's position in
    ``run.readings``, ``window_end_s`` the window-end CPU time and ``toi_s``
    the time of interest.  ``powers_w`` maps every component carried by the
    batch's readings to its per-LOI watts; ``masks`` marks presence for a
    component some LOI readings lack (their value is ``NaN``).

    Per run: ``run_index`` and the ``reading_offsets`` /
    ``execution_offsets`` into the per-reading and per-execution columns.
    Per reading: the window-end time and the matched execution position
    (``-1`` for idle), which whole-run profiles reuse.  Per execution: index,
    start and end, in record order.
    """

    run_ordinal: np.ndarray
    execution_index: np.ndarray
    execution_position: np.ndarray
    last_execution: np.ndarray
    reading_position: np.ndarray
    window_end_s: np.ndarray
    toi_s: np.ndarray
    powers_w: Mapping[str, np.ndarray]
    masks: Mapping[str, np.ndarray]
    run_index: np.ndarray
    reading_offsets: np.ndarray
    reading_times_s: np.ndarray
    reading_positions: np.ndarray
    execution_offsets: np.ndarray
    execution_indices: np.ndarray
    execution_starts_s: np.ndarray
    execution_ends_s: np.ndarray

    @property
    def num_lois(self) -> int:
        return int(self.run_ordinal.shape[0])

    def reading_match(self, ordinal: int) -> tuple[np.ndarray, np.ndarray]:
        """(window-end times, matched execution positions) of one run."""
        lo, hi = self.reading_offsets[ordinal], self.reading_offsets[ordinal + 1]
        return self.reading_times_s[lo:hi], self.reading_positions[lo:hi]

    def execution_durations(self, which: int | str) -> tuple[np.ndarray, np.ndarray]:
        """``(run indices, durations)`` of execution ``which`` per run.

        ``which`` is ``"last"`` or an execution index (its first occurrence
        in a run counts, as :meth:`RunRecord.execution_duration` finds it);
        runs without that execution are left out.  A duration is the float
        subtraction of :attr:`ExecutionTiming.duration_s`.
        """
        offsets = self.execution_offsets
        if which == "last":
            ordinals = np.flatnonzero(offsets[1:] > offsets[:-1])
            rows = offsets[ordinals + 1] - 1
        else:
            rows = np.flatnonzero(self.execution_indices == int(which))
            owners = np.searchsorted(offsets, rows, side="right") - 1
            first = np.ones(owners.shape[0], dtype=bool)
            first[1:] = owners[1:] != owners[:-1]
            ordinals, rows = owners[first], rows[first]
        return (
            self.run_index[ordinals],
            self.execution_ends_s[rows] - self.execution_starts_s[rows],
        )


def _window_end_times(
    runs: Sequence[RunRecord],
    ticks: np.ndarray,
    owner: np.ndarray,
    reading_offsets: np.ndarray,
    calibration: DelayCalibration | None,
    synchronize: bool,
) -> np.ndarray:
    """Every reading's window-end CPU time, for all runs at once.

    ``owner`` maps each reading to its run.  Synchronised, this is
    :meth:`ClockSynchronizer.cpu_time_of`: the float operations of
    :attr:`ClockSynchronizer.anchor_capture_cpu_s` per run anchor, then the
    tick conversion element-wise; unsynchronised, the
    :class:`NaiveIndexSynchronizer` grid.  Both are bit-identical to the
    per-run mappings.
    """
    n = len(runs)
    if synchronize:
        anchors = [run.anchor for run in runs]
        if calibration is not None:
            one_way = calibration.one_way_delay_s
            captures = [(a.cpu_time_after_s - a.round_trip_s) + one_way for a in anchors]
        else:
            captures = [
                (a.cpu_time_after_s - a.round_trip_s) + a.round_trip_s / 2.0 for a in anchors
            ]
        capture = np.fromiter(captures, float, n)
        anchor_ticks = np.fromiter([a.gpu_ticks for a in anchors], np.int64, n)
        frequency = np.fromiter([run.counter_frequency_hz for run in runs], float, n)
        return capture[owner] + (ticks - anchor_ticks[owner]) / frequency[owner]
    grid = np.array(
        [
            (
                float(run.metadata.get("logger_start_cpu_s", run.anchor.cpu_time_after_s)),
                run.logger_period_s,
            )
            for run in runs
        ],
        dtype=float,
    ).reshape(n, 2)
    sample_index = np.arange(owner.shape[0]) - reading_offsets[owner]
    return grid[owner, 0] + (sample_index + 1) * grid[owner, 1]


def _match_batch(
    starts: np.ndarray,
    ends: np.ndarray,
    exec_counts: np.ndarray,
    exec_offsets: np.ndarray,
    times: np.ndarray,
    owner: np.ndarray,
) -> np.ndarray | None:
    """Match every reading of a batch against one concatenated execution table.

    Returns each reading's execution position within its own run (``-1`` for
    idle), or ``None`` when the batch does not meet the preconditions of one
    binary search: every run has executions, the concatenated starts *and*
    ends are non-decreasing (true for backend records even when observation
    jitter makes back-to-back executions overlap slightly), and the runs'
    execution spans are strictly disjoint, so every execution containing a
    time belongs to one run and the first of them is that run's first match.
    A run-ownership check keeps a reading from ever matching another run's
    execution.
    """
    n = exec_counts.shape[0]
    if n == 0 or np.count_nonzero(exec_counts) < n:
        return None
    if starts.shape[0] > 1 and (
        np.count_nonzero(starts[1:] < starts[:-1]) or np.count_nonzero(ends[1:] < ends[:-1])
    ):
        return None
    boundaries = exec_offsets[1:-1]
    if n > 1 and np.count_nonzero(ends[boundaries - 1] >= starts[boundaries]):
        return None
    # An unmatched time (-1) lands below its run's offset too.
    local = _first_containing_positions(starts, ends, times) - exec_offsets[owner]
    return np.where((local >= 0) & (local < exec_counts[owner]), local, -1)


def gather_powers(
    columns: Sequence[ReadingColumns], rows: np.ndarray
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Per-component powers (and presence masks) of the readings at ``rows``.

    ``rows`` index the concatenation of the runs' readings.  Runs whose readings
    share one component set -- every compiled-engine record -- are gathered
    one concatenation per component; otherwise each run contributes its
    :meth:`ReadingColumns.component` column, NaN-filled where absent.
    """
    names = tuple(columns[0].powers_w) if columns else ("total",)
    if all(c.uniform_components and tuple(c.powers_w) == names for c in columns):
        return {
            name: _concat([c.powers_w[name] for c in columns], float)[rows] for name in names
        }, {}
    found = {name for c in columns for name in c.component_names()}
    powers: dict[str, np.ndarray] = {}
    masks: dict[str, np.ndarray] = {}
    for name in ("total", *sorted(found - {"total"})):
        values, present = [], []
        for c in columns:
            column = c.component(name)
            if column is None:
                values.append(np.full(c.num_readings, np.nan))
                present.append(np.zeros(c.num_readings, dtype=bool))
            else:
                values.append(column[0])
                present.append(
                    np.ones(c.num_readings, dtype=bool) if column[1] is None else column[1]
                )
        powers[name] = _concat(values, float)[rows]
        mask = _concat(present, bool)[rows]
        if not mask.all():
            masks[name] = mask
    return powers, masks


def extract_lois_batch(
    runs: Sequence[RunRecord],
    calibration: DelayCalibration | None = None,
    synchronize: bool = True,
) -> LOIBatch:
    """Extract the LOIs of many runs in one vectorized pass (step 7).

    All runs' readings are mapped to CPU time in one array expression and,
    when the batch allows it, matched against a single concatenated execution
    table with one binary search.  A batch that does not (overlapping run
    spans, nested executions, runs without executions) is matched run by run
    with :func:`match_execution_positions`.  No per-LOI object is built: the
    window-end mapping and the TOI are the float operations of
    :meth:`ClockSynchronizer.cpu_time_of` and a one-reading-at-a-time walk,
    so every value -- and every :class:`LogOfInterest` later built from the
    arrays by :func:`loi_object` -- is bit-identical to that walk.
    """
    n = len(runs)
    columns = [run.reading_columns() for run in runs]
    tables = [_execution_table(run) for run in runs]
    reading_counts = np.fromiter(
        [c.gpu_timestamp_ticks.shape[0] for c in columns], np.int64, n
    )
    exec_counts = np.fromiter([t[0].shape[0] for t in tables], np.int64, n)
    reading_offsets = np.fromiter(accumulate(reading_counts.tolist(), initial=0), np.int64, n + 1)
    exec_offsets = np.fromiter(accumulate(exec_counts.tolist(), initial=0), np.int64, n + 1)
    exec_indices = _concat([t[0] for t in tables], np.int64)
    starts = _concat([t[1] for t in tables], float)
    ends = _concat([t[2] for t in tables], float)
    owner = np.arange(n).repeat(reading_counts)
    times = _window_end_times(
        runs,
        _concat([c.gpu_timestamp_ticks for c in columns], np.int64),
        owner,
        reading_offsets,
        calibration,
        synchronize,
    )
    positions = _match_batch(starts, ends, exec_counts, exec_offsets, times, owner)
    if positions is None:
        positions = _concat(
            [
                match_execution_positions(run, times[reading_offsets[i]:reading_offsets[i + 1]])
                for i, run in enumerate(runs)
            ],
            np.int64,
        )
    rows = (positions >= 0).nonzero()[0]
    loi_owner = owner[rows]
    execution_position = positions[rows]
    execution_rows = exec_offsets[loi_owner] + execution_position
    window_end = times[rows]
    powers, masks = gather_powers(columns, rows)
    return LOIBatch(
        run_ordinal=loi_owner,
        execution_index=exec_indices[execution_rows],
        execution_position=execution_position,
        last_execution=exec_indices[exec_offsets[loi_owner + 1] - 1],
        reading_position=rows - reading_offsets[loi_owner],
        window_end_s=window_end,
        toi_s=window_end - starts[execution_rows],
        powers_w=powers,
        masks=masks,
        run_index=np.fromiter([run.run_index for run in runs], np.int64, n),
        reading_offsets=reading_offsets,
        reading_times_s=times,
        reading_positions=positions,
        execution_offsets=exec_offsets,
        execution_indices=exec_indices,
        execution_starts_s=starts,
        execution_ends_s=ends,
    )


def loi_object(
    run: RunRecord, reading_position: int, execution_position: int, window_end_s: float
) -> LogOfInterest:
    """The :class:`LogOfInterest` of one ledger row, built on request."""
    return _loi_from(
        run.run_index,
        run.readings[reading_position],
        window_end_s,
        run.executions[execution_position],
    )


def synchronizer_for_run(
    run: RunRecord, calibration: DelayCalibration | None = None
) -> ClockSynchronizer:
    """Build the per-run synchroniser from the run's anchor."""
    return ClockSynchronizer(
        anchor=run.anchor,
        counter_frequency_hz=run.counter_frequency_hz,
        calibration=calibration,
    )


__all__ = [
    "ClockSynchronizer",
    "NaiveIndexSynchronizer",
    "match_execution",
    "match_execution_positions",
    "extract_lois_batch",
    "LOIBatch",
    "loi_object",
    "synchronizer_for_run",
]
