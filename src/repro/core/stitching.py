"""Stitching logs of interest from many runs into fine-grain profiles (step 9).

With a 1 ms averaging logger and sub-millisecond kernels, each run contributes
at best a single power log for the execution of interest.  The fine-grain view
only appears when the logs of interest of many runs -- each taken at a
different time of interest thanks to the per-run random delays -- are plotted
together.  This module performs that stitching for the SSP/SSE profiles (TOI
on the x-axis) and for the whole-run profiles used by the methodology figures
(time since the first execution of the run on the x-axis).
"""

from __future__ import annotations

from itertools import accumulate, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _kernels as _CK
from .profile import FineGrainProfile, ProfileColumns, ProfileKind
from .records import COMPONENT_KEYS, DelayCalibration, LogOfInterest, RunRecord
from .timesync import LOIBatch, extract_lois_batch, gather_powers, loi_object


class _GrowableColumns:
    """Parallel append-only columns of one dtype, amortised O(1) per row.

    The buffer is ``(width, capacity)``, so every column is contiguous.  Rows
    arrive column by column; :meth:`column` is a read-only view of one
    column's filled prefix, which later appends never change (they write past
    it, or into a fresh buffer).
    """

    __slots__ = ("_buffer", "_size", "_views")

    def __init__(self, dtype, width: int) -> None:
        self._buffer = np.empty((width, 64), dtype=dtype)
        self._size = 0
        self._views: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self._size

    @property
    def width(self) -> int:
        return self._buffer.shape[0]

    def _reserve(self, width: int, size: int) -> None:
        old = self._buffer
        if width > old.shape[0] or size > old.shape[1]:
            capacity = old.shape[1] if size <= old.shape[1] else max(size, 2 * old.shape[1])
            self._buffer = np.empty((width, capacity), dtype=old.dtype)
            self._buffer[: old.shape[0], : self._size] = old[:, : self._size]
        self._views.clear()

    def add_column(self, fill) -> int:
        """Add a column holding ``fill`` in every existing row; its position."""
        position = self.width
        self._reserve(position + 1, self._size)
        self._buffer[position, : self._size] = fill
        return position

    def extend(self, columns: Sequence | np.ndarray, count: int) -> None:
        """Append ``count`` rows: ``columns[i]`` (an array or a fill value) is
        column ``i``'s part of them; a 2-D array is copied as one block."""
        start, size = self._size, self._size + count
        self._reserve(self.width, size)
        buffer = self._buffer
        if isinstance(columns, np.ndarray):
            buffer[: columns.shape[0], start:size] = columns
        else:
            for position, values in enumerate(columns):
                buffer[position, start:size] = values
        self._size = size

    def shift(self, position: int, count: int, offset: int) -> None:
        """Add ``offset`` to column ``position`` of the last ``count`` rows."""
        self._buffer[position, self._size - count : self._size] += offset

    def column(self, position: int = 0) -> np.ndarray:
        view = self._views.get(position)
        if view is None:
            view = self._views[position] = self._buffer[position, : self._size]
            view.flags.writeable = False
        return view


# Columns of the per-LOI integer and float ledgers: the order of the LOI
# blocks k_match writes, so a batch is appended as one block each.
_ORDINAL, _RUN, _EXECUTION = _CK.I_ORDINAL, _CK.I_RUN, _CK.I_EXECUTION
_LAST, _EXECUTION_POSITION, _READING_POSITION = _CK.I_LAST, _CK.I_EXEC_POS, _CK.I_READING
_WINDOW_END, _TOI = _CK.F_WINDOW_END, _CK.F_TOI


class StitchedRunSeries:
    """The LOI ledger: every stitched run's logs of interest, as columns.

    :meth:`ProfileStitcher.collect` / :meth:`ProfileStitcher.extend` append
    one :class:`~repro.core.timesync.LOIBatch` at a time.  Each LOI is a row
    of growable columns (run index, execution index, the run's last execution
    index, record positions, window-end time, time of interest, per-component
    watts with presence); each appended batch keeps its runs' records,
    reading matches and execution tables.  Appending costs O(new LOIs)
    amortised, and every count, mask and profile slice reads the columns.
    :class:`LogOfInterest` objects are built only on request (then memoised),
    from the row's record positions.
    """

    def __init__(self, kernel_name: str) -> None:
        self.kernel_name = kernel_name
        self._runs: dict[int, RunRecord] = {}
        self._records: list[RunRecord] = []
        self._loi_ints = _GrowableColumns(np.int64, _CK.I_LOI_LEN)
        self._loi_floats = _GrowableColumns(float, _CK.F_LOI_LEN)
        self._powers = _GrowableColumns(float, 0)
        self._presence = _GrowableColumns(bool, 0)
        self._power_columns: dict[str, int] = {}
        # Per power column, the LOIs whose reading lacks the component.
        self._missing: list[int] = []
        self._objects: list[LogOfInterest | None] = []
        self._lois_by_run: dict[int, tuple[LogOfInterest, ...]] | None = None
        # The appended batches keep their per-run, per-reading and
        # per-execution tables.
        self._batches: list[tuple[Sequence[RunRecord], LOIBatch]] = []
        # Per-run durations of one execution ("last" or an index), extended
        # as batches arrive: which -> [batches read, run indices, durations].
        self._durations: dict[int | str, list] = {}
        # Row selections memoised until the next append: filter -> (golden
        # table, rows).
        self._selections: dict[tuple, tuple[GoldenRuns | None, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Mapping-style views.
    # ------------------------------------------------------------------ #
    @property
    def runs(self) -> Mapping[int, RunRecord]:
        return self._runs

    @property
    def lois_by_run(self) -> Mapping[int, tuple[LogOfInterest, ...]]:
        """Every run's LOIs (built on first request), keyed by run index."""
        if self._lois_by_run is None:
            lois = iter(self.all_lois())
            self._lois_by_run = {}
            for runs, batch in self._batches:
                counts = np.bincount(batch.run_ordinal, minlength=len(runs)).tolist()
                for run, count in zip(runs, counts):
                    self._lois_by_run[run.run_index] = tuple(islice(lois, count))
        return self._lois_by_run

    @property
    def num_lois(self) -> int:
        return len(self._loi_ints)

    # ------------------------------------------------------------------ #
    # Incremental growth.
    # ------------------------------------------------------------------ #
    def append(self, runs: Sequence[RunRecord], batch: LOIBatch) -> None:
        """Append the runs of one extracted batch (in batch order)."""
        new_indices = batch.run_index.tolist()
        if len(set(new_indices)) != len(new_indices) or any(
            run_index in self._runs for run_index in new_indices
        ):
            seen = set(self._runs)
            for run_index in new_indices:
                if run_index in seen:
                    raise ValueError(f"run {run_index} already stitched into this series")
                seen.add(run_index)
        self._lois_by_run = None
        self._selections.clear()
        base_ordinal = len(self._records)
        self._records.extend(runs)
        self._runs.update(zip(new_indices, runs))
        self._batches.append((runs, batch))
        if batch.num_lois:  # a batch without LOIs adds no ledger rows
            self._append_lois(batch, base_ordinal)

    def _append_lois(self, batch: LOIBatch, base_ordinal: int) -> None:
        """Append a batch's LOIs as ledger rows; its runs start at ``base_ordinal``."""
        size, count = self.num_lois, batch.num_lois
        # The batch's LOI blocks are in the ledger's column order; only the
        # run ordinals move from the batch's to the series'.
        self._loi_ints.extend(batch.loi_ints, count)
        if base_ordinal:
            self._loi_ints.shift(_ORDINAL, count, base_ordinal)
        self._loi_floats.extend(batch.loi_floats, count)
        self._objects.extend([None] * count)

        powers, masks = batch.powers_w, batch.masks
        for name in powers:
            if name not in self._power_columns:
                self._power_columns[name] = self._powers.add_column(np.nan)
                self._presence.add_column(False)
                self._missing.append(size)
        # Column positions follow the dict's insertion order.
        names = list(self._power_columns)
        self._powers.extend([powers.get(name, np.nan) for name in names], count)
        self._presence.extend(
            [masks.get(name, True) if name in powers else False for name in names], count
        )
        for position, name in enumerate(names):
            if name not in powers:
                self._missing[position] += count
            elif name in masks:
                self._missing[position] += count - int(np.count_nonzero(masks[name]))

    def execution_durations(self, which: int | str) -> tuple[np.ndarray, np.ndarray]:
        """``(run indices, durations)`` of execution ``which`` in stitch order.

        ``which`` is ``"last"`` or an execution index; runs without that
        execution are left out.  Only the batches appended since the
        previous call are read, so per-snapshot profile builds stay linear
        in the runs.
        """
        entry = self._durations.get(which)
        if entry is None:
            entry = self._durations[which] = [
                0, _GrowableColumns(np.int64, 1), _GrowableColumns(float, 1)
            ]
        read, run_indices, durations = entry
        for _, batch in self._batches[read:]:
            indices, values = batch.execution_durations(which)
            run_indices.extend((indices,), indices.shape[0])
            durations.extend((values,), values.shape[0])
        entry[0] = len(self._batches)
        return run_indices.column(), durations.column()

    # ------------------------------------------------------------------ #
    # LOI objects, built on request.
    # ------------------------------------------------------------------ #
    def _lois(self, rows: np.ndarray) -> list[LogOfInterest]:
        ordinals = self._loi_ints.column(_ORDINAL)
        reading_positions = self._loi_ints.column(_READING_POSITION)
        execution_positions = self._loi_ints.column(_EXECUTION_POSITION)
        window_ends = self._loi_floats.column(_WINDOW_END)
        objects = self._objects
        lois = []
        for row in rows.tolist():
            loi = objects[row]
            if loi is None:
                loi = objects[row] = loi_object(
                    self._records[ordinals[row]],
                    int(reading_positions[row]),
                    int(execution_positions[row]),
                    float(window_ends[row]),
                )
            lois.append(loi)
        return lois

    def all_lois(self) -> list[LogOfInterest]:
        return self._lois(np.arange(self.num_lois))

    def lois_for_execution(self, execution_index: int) -> list[LogOfInterest]:
        return self._lois(self.rows(execution_index=execution_index))

    def lois_for_last_execution(self) -> list[LogOfInterest]:
        return self._lois(self.rows(last_execution=True))

    def lois_from_execution(self, min_execution_index: int) -> list[LogOfInterest]:
        """All LOIs whose execution index is at or past ``min_execution_index``."""
        return self._lois(self.rows(min_execution_index=min_execution_index))

    # ------------------------------------------------------------------ #
    # Columns and counts (the profile builds and the shortfall checks).
    # ------------------------------------------------------------------ #
    def loi_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(run_index, execution_index) arrays over all LOIs, in stitch order."""
        return self._loi_ints.column(_RUN), self._loi_ints.column(_EXECUTION)

    def loi_toi_array(self) -> np.ndarray:
        """Times of interest over all LOIs, in stitch order."""
        return self._loi_floats.column(_TOI)

    def loi_last_execution_array(self) -> np.ndarray:
        """Per-LOI last-execution index of the LOI's own run, in stitch order."""
        return self._loi_ints.column(_LAST)

    def loi_power_column(
        self, component: str
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """(values, presence-mask) of one component across all LOIs.

        Values are ``NaN`` where a reading lacks the component.  The mask is
        ``None`` when the component is present in every LOI's reading; the
        whole return is ``None`` when it is present in none.
        """
        position = self._power_columns.get(component)
        if position is None or self._missing[position] == self.num_lois:
            return None
        presence = self._presence.column(position) if self._missing[position] else None
        return self._powers.column(position), presence

    def rows(
        self,
        *,
        last_execution: bool = False,
        min_execution_index: int | None = None,
        execution_index: int | None = None,
        golden_runs: "GoldenRuns | Iterable[int] | None" = None,
    ) -> np.ndarray:
        """Ledger rows, in stitch order, of the LOIs matching every filter.

        ``last_execution`` keeps each run's last execution.  A selection
        whose golden runs are ``None`` or a :class:`GoldenRuns` table is
        memoised until the next append, so a checkpoint that counts, samples
        and slices one section selects its rows once.
        """
        golden = GoldenRuns.of(golden_runs)
        key = (last_execution, min_execution_index, execution_index)
        cached = self._selections.get(key)
        if cached is not None and cached[0] is golden:
            return cached[1]
        run_idx, exec_idx = self.loi_index_arrays()
        mask = np.ones(run_idx.shape, dtype=bool)
        if last_execution:
            mask &= exec_idx == self._loi_ints.column(_LAST)
        if min_execution_index is not None:
            mask &= exec_idx >= min_execution_index
        if execution_index is not None:
            mask &= exec_idx == execution_index
        if golden is not None:
            mask &= golden.mask(run_idx)
        rows = np.flatnonzero(mask)
        rows.flags.writeable = False
        self._selections[key] = (golden, rows)
        return rows

    def count_lois(
        self,
        min_execution_index: int | None = None,
        execution_index: int | None = None,
        golden_runs: Iterable[int] | None = None,
    ) -> int:
        """Count LOIs matching the given execution/run filters."""
        return int(self.rows(
            min_execution_index=min_execution_index,
            execution_index=execution_index,
            golden_runs=golden_runs,
        ).shape[0])

    def count_last_execution_lois(self, golden_runs: Iterable[int] | None = None) -> int:
        """Count LOIs of each run's last execution, optionally golden-only."""
        return int(self.rows(last_execution=True, golden_runs=golden_runs).shape[0])

    def run_columns(
        self,
        components: Sequence[str],
        golden_runs: Iterable[int] | None,
        include_idle: bool,
    ) -> tuple[list[ProfileColumns], list[float]]:
        """Whole-run profile rows of the selected runs (at most one bundle).

        Every reading of a selected run becomes a row, its time measured from
        the run's first execution start (with ``include_idle`` False only the
        readings inside the first-start-to-last-end span).  The second return
        is every selected run's span.  Runs without executions are left out.
        The appended batches' tables are joined first, so the rows come out
        of one pass however many batches the series grew by.
        """
        batches = [batch for _, batch in self._batches]
        if not batches:
            return [], []
        exec_offsets = _join_offsets([batch.execution_offsets for batch in batches])
        reading_offsets = _join_offsets([batch.reading_offsets for batch in batches])
        run_index = np.concatenate([batch.run_index for batch in batches])
        selected = np.flatnonzero(golden_mask(
            exec_offsets[1:] > exec_offsets[:-1], run_index, golden_runs
        ))
        if not selected.shape[0]:
            return [], []
        first_execution = exec_offsets[selected]
        origin = np.concatenate([batch.execution_starts_s for batch in batches])[first_execution]
        span_end = np.concatenate(
            [batch.execution_ends_s for batch in batches]
        )[exec_offsets[selected + 1] - 1]
        spans = (span_end - origin).tolist()
        # Reading rows of the selected runs, in run then reading order.
        counts = np.diff(reading_offsets)[selected]
        owner = np.repeat(np.arange(selected.shape[0]), counts)
        rows = reading_offsets[selected][owner] + (
            np.arange(owner.shape[0]) - (np.cumsum(counts) - counts)[owner]
        )
        times = np.concatenate([batch.reading_times_s for batch in batches])[rows]
        if include_idle:
            keep = np.arange(rows.shape[0])
        else:
            keep = np.flatnonzero((times >= origin[owner]) & (times <= span_end[owner]))
        if not keep.shape[0]:
            return [], spans
        owner = owner[keep]
        positions = np.concatenate([batch.reading_positions for batch in batches])[rows[keep]]
        execution_indices = np.concatenate([batch.execution_indices for batch in batches])
        records = self._records
        powers, masks = gather_powers([records[i] for i in selected.tolist()], keep)
        return [ProfileColumns(
            time_s=times[keep] - origin[owner],
            run_index=run_index[selected][owner],
            execution_index=np.where(
                positions >= 0,
                execution_indices[first_execution[owner] + np.maximum(positions, 0)],
                -1,
            ),
            powers_w={name: powers[name] for name in components if name in powers},
            masks={name: masks[name] for name in components if name in masks},
        )], spans


def _join_offsets(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Per-batch ``[0, ..., count]`` offsets joined into offsets over every batch."""
    bases = accumulate((int(part[-1]) for part in parts[:-1]), initial=0)
    return np.concatenate([parts[0][:1], *(part[1:] + base for part, base in zip(parts, bases))])


class GoldenRuns:
    """A golden-run selection as a run-indexed flag table.

    Filtering a run-index column is one gather from the table
    (``take(..., mode="clip")``) in place of a set-membership search.  The
    table spans the selection's lowest to highest run index, one byte per
    index, plus a ``False`` slot at each end that every run index outside
    the span clips onto.  Run indices are the profiler's dense run counters,
    so the span is about the number of runs collected.
    """

    __slots__ = ("_indices", "_low", "_flags")

    def __init__(self, run_indices: Iterable[int]) -> None:
        if isinstance(run_indices, np.ndarray):
            indices = run_indices.astype(np.int64)  # a copy the caller cannot change
        else:
            indices = np.fromiter(run_indices, dtype=np.int64)
        self._indices = indices
        if indices.shape[0]:
            self._low = int(indices.min()) - 1
            self._flags = np.zeros(int(indices.max()) - self._low + 2, dtype=bool)
            self._flags[indices - self._low] = True
        else:
            self._low = 0
            self._flags = np.zeros(1, dtype=bool)

    @classmethod
    def of(cls, golden_runs: "GoldenRuns | Iterable[int] | None") -> "GoldenRuns | None":
        """``golden_runs`` as a table (``None`` and tables pass through)."""
        if golden_runs is None or isinstance(golden_runs, cls):
            return golden_runs
        return cls(golden_runs)

    def __iter__(self):
        """The selected run indices, in the order given."""
        return iter(self._indices.tolist())

    def mask(self, run_idx: np.ndarray) -> np.ndarray:
        """Per entry of ``run_idx``: is that run golden?"""
        return self._flags.take(np.subtract(run_idx, self._low, dtype=np.int64), mode="clip")


def golden_mask(
    mask: np.ndarray,
    run_idx: np.ndarray,
    golden_runs: GoldenRuns | Iterable[int] | None,
) -> np.ndarray:
    """``mask`` restricted to rows whose run is golden (unchanged for None)."""
    golden = GoldenRuns.of(golden_runs)
    if golden is None:
        return mask
    return mask & golden.mask(run_idx)


class ProfileStitcher:
    """Builds fine-grain profiles from run records.

    LOIs are extracted one batch at a time into a :class:`StitchedRunSeries`
    ledger, and every profile is one row selection plus array slices of it --
    no intermediate :class:`LogOfInterest` or point objects.  The equivalence
    tests pin the profiles bit for bit against one-reading-at-a-time LOI
    extraction (``tests/stitching_spec.py``) plus
    :func:`~repro.core.profile.profile_from_lois_reference`.
    """

    def __init__(
        self,
        components: Sequence[str] = COMPONENT_KEYS,
        calibration: DelayCalibration | None = None,
        synchronize: bool = True,
    ) -> None:
        self._components = tuple(components)
        self._calibration = calibration if synchronize else None
        self._synchronize = synchronize

    @property
    def synchronize(self) -> bool:
        return self._synchronize

    # ------------------------------------------------------------------ #
    # LOI extraction across runs.
    # ------------------------------------------------------------------ #
    def collect(self, runs: Sequence[RunRecord]) -> StitchedRunSeries:
        """Extract LOIs for every execution of every run."""
        if not runs:
            raise ValueError("need at least one run to stitch")
        series = StitchedRunSeries(kernel_name=runs[0].kernel_name)
        self._stitch_into(series, runs)
        return series

    def extend(
        self, series: StitchedRunSeries, new_records: Sequence[RunRecord]
    ) -> StitchedRunSeries:
        """Stitch newly collected runs into an existing series.

        Only the new records are extracted, in one batch, and appended to the
        ledger; everything already in the series is reused untouched.  This
        keeps the profiler's step-8 top-up loop linear in the total number of
        runs.
        """
        self._stitch_into(series, new_records)
        return series

    def match(self, runs: Sequence[RunRecord]) -> LOIBatch:
        """The LOIs stitching ``runs`` would add, without appending them.

        Enough to count them (:meth:`LOIBatch.last_execution_count`) before
        stitching the runs.
        """
        return extract_lois_batch(runs, self._calibration, self._synchronize)

    def _stitch_into(self, series: StitchedRunSeries, runs: Sequence[RunRecord]) -> None:
        if not runs:
            return
        batch = extract_lois_batch(
            runs, calibration=self._calibration, synchronize=self._synchronize
        )
        series.append(runs, batch)

    # ------------------------------------------------------------------ #
    # Execution-level (SSP/SSE) profiles.
    # ------------------------------------------------------------------ #
    def ssp_profile(
        self,
        series: StitchedRunSeries,
        golden_runs: GoldenRuns | Sequence[int] | None = None,
        min_execution_index: int | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> FineGrainProfile:
        """Profile of the steady-state-power executions across the selected runs.

        By default only the last execution of each run contributes.  When
        ``min_execution_index`` is given, every execution at or past that index
        contributes -- power is stable from the SSP execution onward, so the
        extra (tail) executions legitimately belong to the same profile and
        multiply the LOI yield of very short kernels.
        """
        which: int | str = "last" if min_execution_index is None else min_execution_index
        return self._profile_from_series(
            series, golden_runs, ProfileKind.SSP, which, metadata,
            last_execution=min_execution_index is None,
            min_execution_index=min_execution_index,
        )

    def sse_profile(
        self,
        series: StitchedRunSeries,
        sse_index: int,
        golden_runs: GoldenRuns | Sequence[int] | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> FineGrainProfile:
        """Profile of the SSE execution (first post-warm-up) across runs."""
        return self._profile_from_series(
            series, golden_runs, ProfileKind.SSE, sse_index, metadata,
            execution_index=sse_index,
        )

    def execution_profile(
        self,
        series: StitchedRunSeries,
        execution_index: int,
        golden_runs: GoldenRuns | Sequence[int] | None = None,
    ) -> FineGrainProfile:
        """Profile of an arbitrary execution index (used for outlier studies)."""
        return self._profile_from_series(
            series, golden_runs, ProfileKind.CUSTOM, execution_index, None,
            execution_index=execution_index,
        )

    # ------------------------------------------------------------------ #
    # Whole-run profile (Figures 5, 6 and 8).
    # ------------------------------------------------------------------ #
    def run_profile(
        self,
        series: StitchedRunSeries,
        golden_runs: GoldenRuns | Sequence[int] | None = None,
        include_non_execution_readings: bool = True,
        metadata: Mapping[str, object] | None = None,
    ) -> FineGrainProfile:
        """Power over the whole run, time measured from the first execution start.

        Readings that do not overlap any execution (idle lead-in / the random
        delay) are included by default so the warm-up ramp from idle is
        visible, exactly as in the paper's figures.
        """
        chunks, spans = series.run_columns(
            self._components, golden_runs, include_non_execution_readings
        )
        return FineGrainProfile(
            kernel_name=series.kernel_name,
            kind=ProfileKind.RUN,
            execution_time_s=mean_duration_or_zero(spans),
            metadata=dict(metadata or {}),
            columns=ProfileColumns.concatenate(chunks),
        )

    def section_profiles(
        self,
        series: StitchedRunSeries,
        sections: Sequence[str],
        *,
        golden_runs: GoldenRuns | Sequence[int] | None = None,
        sse_index: int = 0,
        min_execution_index: int | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> dict[str, FineGrainProfile]:
        """Build only the requested profile sections in one call.

        ``sections`` is any subset of ``("ssp", "sse", "run")``; the profiler
        uses this to skip stitching the whole-run profile entirely when a
        driver-declared subset excludes it (the run profile is the bulk of a
        long kernel's payload and the costliest section to assemble).
        """
        golden = GoldenRuns.of(golden_runs)
        profiles: dict[str, FineGrainProfile] = {}
        for section in sections:
            if section == "ssp":
                profiles[section] = self.ssp_profile(
                    series,
                    golden,
                    min_execution_index=min_execution_index,
                    metadata=metadata,
                )
            elif section == "sse":
                profiles[section] = self.sse_profile(
                    series, sse_index, golden, metadata=metadata
                )
            elif section == "run":
                profiles[section] = self.run_profile(
                    series, golden, metadata=metadata
                )
            else:
                raise ValueError(
                    f"unknown profile section {section!r}; pick from ('ssp', 'sse', 'run')"
                )
        return profiles

    # ------------------------------------------------------------------ #
    # Helpers.
    # ------------------------------------------------------------------ #
    def _profile_from_series(
        self,
        series: StitchedRunSeries,
        golden_runs: GoldenRuns | Sequence[int] | None,
        kind: ProfileKind,
        which: int | str,
        metadata: Mapping[str, object] | None,
        **filters,
    ) -> FineGrainProfile:
        """Slice the golden ledger rows matching ``filters`` into a profile.

        ``filters`` are :meth:`StitchedRunSeries.rows`' execution filters.
        The rows are put in time-of-interest order first (the stable order
        the profile would sort its points into), so every column is sliced
        once and arrives sorted.
        """
        golden = GoldenRuns.of(golden_runs)
        rows = series.rows(golden_runs=golden, **filters)
        toi = series.loi_toi_array().take(rows)
        order = np.argsort(toi, kind="stable")
        rows, toi = rows.take(order), toi.take(order)
        run_idx, exec_idx = series.loi_index_arrays()
        powers: dict[str, np.ndarray] = {}
        masks: dict[str, np.ndarray] = {}
        if rows.size:
            for component in self._components:
                column = series.loi_power_column(component)
                if column is None:
                    continue
                values, presence = column
                powers[component] = values.take(rows)
                if presence is not None:
                    masks[component] = presence.take(rows)
        columns = ProfileColumns(
            time_s=toi,
            run_index=run_idx.take(rows),
            execution_index=exec_idx.take(rows),
            powers_w=powers,
            masks=masks,
        )
        return FineGrainProfile(
            kernel_name=series.kernel_name,
            kind=kind,
            execution_time_s=self._execution_time(series, golden, which),
            metadata=dict(metadata or {}),
            columns=columns,
        )

    @staticmethod
    def _execution_time(
        series: StitchedRunSeries,
        golden_runs: GoldenRuns | Iterable[int] | None,
        which: int | str,
    ) -> float:
        run_indices, durations = series.execution_durations(which)
        golden = GoldenRuns.of(golden_runs)
        if golden is not None:
            durations = durations[golden.mask(run_indices)]
        return mean_duration_or_zero(durations.tolist())


def mean_duration_or_zero(durations: Sequence[float]) -> float:
    if not durations:
        return 0.0
    return float(sum(durations) / len(durations))


__all__ = [
    "GoldenRuns",
    "StitchedRunSeries",
    "ProfileStitcher",
    "golden_mask",
    "mean_duration_or_zero",
]
