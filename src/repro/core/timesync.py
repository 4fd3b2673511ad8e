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

from . import _kernels as _CK
from .records import (
    DelayCalibration,
    ExecutionTiming,
    ExecutionTimings,
    LogOfInterest,
    PowerReading,
    PowerReadings,
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
    """``parts`` joined into one C-contiguous array (one part is not copied)."""
    if len(parts) == 1:
        return np.ascontiguousarray(parts[0])
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

    ``loi_ints`` / ``loi_floats`` hold those per-LOI columns as two blocks,
    one row per column, in the LOI ledger's order: run ordinal, run index,
    execution index, last execution, execution position and reading
    position; window end and time of interest.

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
    loi_ints: np.ndarray
    loi_floats: np.ndarray

    @property
    def num_lois(self) -> int:
        return int(self.run_ordinal.shape[0])

    def last_execution_count(self) -> int:
        """How many LOIs belong to their run's last execution."""
        return int(np.count_nonzero(self.execution_index == self.last_execution))

    def reading_match(self, ordinal: int) -> tuple[np.ndarray, np.ndarray]:
        """(window-end times, matched execution positions) of one run."""
        lo, hi = self.reading_offsets[ordinal], self.reading_offsets[ordinal + 1]
        return self.reading_times_s[lo:hi], self.reading_positions[lo:hi]

    def execution_durations(self, which: int | str) -> tuple[np.ndarray, np.ndarray]:
        """``(run indices, durations)`` of execution ``which`` per run.

        ``which`` is ``"last"`` or an execution index (its first occurrence
        in a run counts, as :meth:`RunRecord.execution_duration` finds it);
        runs without that execution are left out.  A duration is the float
        subtraction of :attr:`ExecutionTiming.duration_s`, taken by the
        ``k_durations`` kernel body.
        """
        # Imported here: repro.gpu imports repro.core.
        from ..gpu.fastcore import kernels

        code = -1 if which == "last" else int(which)
        n = self.run_index.shape[0]
        ordinals = np.empty(n, dtype=np.int64)
        durations = np.empty(n)
        found = 0
        if code >= 0 or which == "last":  # execution indices are never negative
            found = kernels().durations(
                self.execution_offsets, self.execution_indices, self.execution_starts_s,
                self.execution_ends_s, code, ordinals, durations,
            )
        return self.run_index.take(ordinals[:found]), durations[:found]


def gather_powers(
    runs: Sequence[RunRecord], rows: np.ndarray
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Per-component powers (and presence masks) of the readings at ``rows``.

    ``rows`` index the concatenation of the runs' readings.  Compiled records
    sharing one component set are gathered from their :class:`PowerReadings`
    arrays; otherwise each run contributes its
    :meth:`ReadingColumns.component` column, NaN-filled where absent.
    """
    return _gather(_uniform_readings(runs), runs, rows)


def _gather(
    uniform: list[PowerReadings] | None, runs: Sequence[RunRecord], rows: np.ndarray
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    if uniform is not None:
        names = uniform[0].component_names
        # One row per component.
        matrix = _concat([r.components_w for r in uniform], float).take(rows, axis=0).T
        powers = {"total": _concat([r.total_w for r in uniform], float).take(rows)}
        for name in sorted(names):
            powers[name] = matrix[names.index(name)]
        return powers, {}
    columns = [run.reading_columns() for run in runs]
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


def _mapping(
    runs: Sequence[RunRecord], calibration: DelayCalibration | None, synchronize: bool
) -> tuple[list, list, list]:
    """Per run, ``(anchor ticks, origin, scale)`` of the window-end mapping.

    Synchronised, a reading's window end is ``origin + (ticks - anchor) /
    scale``: :meth:`ClockSynchronizer.cpu_time_of`, with the origin
    computed by the float operations of
    :attr:`ClockSynchronizer.anchor_capture_cpu_s`.  Unsynchronised, the
    k-th reading's is ``origin + (k + 1) * scale``: the
    :class:`NaiveIndexSynchronizer` grid from the logger start.
    """
    if not synchronize:
        return (
            [0] * len(runs),
            [
                float(run.metadata.get("logger_start_cpu_s", run.anchor.cpu_time_after_s))
                for run in runs
            ],
            [run.logger_period_s for run in runs],
        )
    anchors = [run.anchor for run in runs]
    if calibration is not None:
        one_way = calibration.one_way_delay_s
        origins = [(a.cpu_time_after_s - a.round_trip_s) + one_way for a in anchors]
    else:
        origins = [(a.cpu_time_after_s - a.round_trip_s) + a.round_trip_s / 2.0 for a in anchors]
    return [a.gpu_ticks for a in anchors], origins, [run.counter_frequency_hz for run in runs]


def _uniform_readings(runs: Sequence[RunRecord]) -> list[PowerReadings] | None:
    """The runs' columnar readings when all share one component set, else None."""
    readings = [run.readings for run in runs]
    if readings and all(type(r) is PowerReadings for r in readings):
        names = readings[0].component_names
        if all(r.component_names == names for r in readings):
            return readings
    return None


def extract_lois_batch(
    runs: Sequence[RunRecord],
    calibration: DelayCalibration | None = None,
    synchronize: bool = True,
) -> LOIBatch:
    """Extract the LOIs of many runs in one compiled pass (step 7).

    The ``k_match`` kernel body (:mod:`repro.core._kernels`, run by the
    active provider) maps every reading's window end to CPU time, matches it
    against its own run's executions and gathers the matched readings into
    LOI rows; their powers are then gathered per component.  Compiled
    records' ticks and powers are read straight from their
    :class:`PowerReadings` arrays.  The window-end mapping and the TOI are
    the float operations of :meth:`ClockSynchronizer.cpu_time_of` and a
    one-reading-at-a-time walk, and the match is :func:`match_execution`'s
    first match, so every value -- and every :class:`LogOfInterest` later
    built from the arrays by :func:`loi_object` -- is bit-identical to that
    walk.
    """
    # Imported here: repro.gpu imports repro.core.
    from ..gpu.fastcore import kernels

    n = len(runs)
    uniform = _uniform_readings(runs)
    sources = [run.reading_columns() for run in runs] if uniform is None else uniform
    tables = [_execution_table(run) for run in runs]
    ticks = _concat([source.gpu_timestamp_ticks for source in sources], np.int64)
    indices = _concat([t[0] for t in tables], np.int64)
    starts = _concat([t[1] for t in tables], float)
    ends = _concat([t[2] for t in tables], float)
    # The kernel's per-run inputs, packed (see repro.core._kernels).
    offsets = np.array(
        [
            *accumulate([source.gpu_timestamp_ticks.shape[0] for source in sources], initial=0),
            *accumulate([t[0].shape[0] for t in tables], initial=0),
        ],
        dtype=np.int64,
    )
    anchors, origins, scales = _mapping(runs, calibration, synchronize)
    run_ints = np.array([*(run.run_index for run in runs), *anchors], dtype=np.int64)
    run_floats = np.array([*origins, *scales], dtype=float)
    total = ticks.shape[0]
    flat_ints = np.empty(_CK.I_LEN * total, dtype=np.int64)
    flat_floats = np.empty(_CK.F_LEN * total)
    count = kernels().match(
        ticks, offsets, run_ints, run_floats, n, int(synchronize), starts, ends, indices,
        flat_ints, flat_floats,
    )
    # The kernel's output blocks, one row each.
    ints = flat_ints.reshape(_CK.I_LEN, total)
    floats = flat_floats.reshape(_CK.F_LEN, total)
    loi_ints, loi_floats = ints[:_CK.I_LOI_LEN, :count], floats[:_CK.F_LOI_LEN, :count]
    powers, masks = _gather(uniform, runs, ints[_CK.I_ROW, :count])
    return LOIBatch(
        run_ordinal=loi_ints[_CK.I_ORDINAL],
        execution_index=loi_ints[_CK.I_EXECUTION],
        execution_position=loi_ints[_CK.I_EXEC_POS],
        last_execution=loi_ints[_CK.I_LAST],
        reading_position=loi_ints[_CK.I_READING],
        window_end_s=loi_floats[_CK.F_WINDOW_END],
        toi_s=loi_floats[_CK.F_TOI],
        powers_w=powers,
        masks=masks,
        run_index=run_ints[:n],
        reading_offsets=offsets[: n + 1],
        reading_times_s=floats[_CK.F_TIME],
        reading_positions=ints[_CK.I_POSITION],
        execution_offsets=offsets[n + 1 :],
        execution_indices=indices,
        execution_starts_s=starts,
        execution_ends_s=ends,
        loi_ints=loi_ints,
        loi_floats=loi_floats,
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
    "extract_lois_batch",
    "LOIBatch",
    "loi_object",
    "synchronizer_for_run",
]
