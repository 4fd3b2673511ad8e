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

from itertools import islice
from typing import Iterable, Mapping, Sequence

import numpy as np

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

    def extend(self, columns: Sequence, count: int) -> None:
        """Append ``count`` rows: ``columns[i]`` (an array or a fill value) is
        column ``i``'s part of them."""
        start, size = self._size, self._size + count
        self._reserve(self.width, size)
        buffer = self._buffer
        for position, values in enumerate(columns):
            buffer[position, start:size] = values
        self._size = size

    def column(self, position: int = 0) -> np.ndarray:
        view = self._views.get(position)
        if view is None:
            view = self._views[position] = self._buffer[position, : self._size]
            view.flags.writeable = False
        return view


# Columns of the per-LOI integer ledger.
_ORDINAL, _RUN, _EXECUTION, _LAST, _EXECUTION_POSITION, _READING_POSITION = range(6)
# Columns of the per-LOI float ledger.
_WINDOW_END, _TOI = range(2)


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
        self._loi_ints = _GrowableColumns(np.int64, 6)
        self._loi_floats = _GrowableColumns(float, 2)
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
        base_ordinal = len(self._records)
        self._records.extend(runs)
        self._runs.update(zip(new_indices, runs))
        self._batches.append((runs, batch))
        if batch.num_lois:  # a batch without LOIs adds no ledger rows
            self._append_lois(batch, base_ordinal)

    def _append_lois(self, batch: LOIBatch, base_ordinal: int) -> None:
        """Append a batch's LOIs as ledger rows; its runs start at ``base_ordinal``."""
        size, count = self.num_lois, batch.num_lois
        ordinal = batch.run_ordinal
        self._loi_ints.extend(
            (
                ordinal + base_ordinal,
                batch.run_index[ordinal],
                batch.execution_index,
                batch.last_execution,
                batch.execution_position,
                batch.reading_position,
            ),
            count,
        )
        self._loi_floats.extend((batch.window_end_s, batch.toi_s), count)
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

    def execution_durations(self, which: int | str) -> tuple[list[int], list[float]]:
        """``(run indices, durations)`` of execution ``which`` in stitch order.

        ``which`` is ``"last"`` or an execution index; runs without that
        execution are left out.  Only the batches appended since the
        previous call are read, so per-snapshot profile builds stay linear
        in the runs.
        """
        entry = self._durations.setdefault(which, [0, [], []])
        read, run_indices, durations = entry
        for _, batch in self._batches[read:]:
            indices, values = batch.execution_durations(which)
            run_indices.extend(indices.tolist())
            durations.extend(values.tolist())
        entry[0] = len(self._batches)
        return run_indices, durations

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
        _, exec_idx = self.loi_index_arrays()
        return self._lois(np.flatnonzero(exec_idx == execution_index))

    def lois_for_last_execution(self) -> list[LogOfInterest]:
        return self._lois(np.flatnonzero(self._last_execution_mask()))

    def lois_from_execution(self, min_execution_index: int) -> list[LogOfInterest]:
        """All LOIs whose execution index is at or past ``min_execution_index``."""
        _, exec_idx = self.loi_index_arrays()
        return self._lois(np.flatnonzero(exec_idx >= min_execution_index))

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

    def _last_execution_mask(self) -> np.ndarray:
        return self._loi_ints.column(_EXECUTION) == self._loi_ints.column(_LAST)

    def count_lois(
        self,
        min_execution_index: int | None = None,
        execution_index: int | None = None,
        golden_runs: Iterable[int] | None = None,
    ) -> int:
        """Count LOIs matching the given execution/run filters."""
        run_idx, exec_idx = self.loi_index_arrays()
        mask = np.ones(run_idx.shape, dtype=bool)
        if min_execution_index is not None:
            mask &= exec_idx >= min_execution_index
        if execution_index is not None:
            mask &= exec_idx == execution_index
        return int(np.count_nonzero(golden_mask(mask, run_idx, golden_runs)))

    def count_last_execution_lois(self, golden_runs: Iterable[int] | None = None) -> int:
        """Count LOIs of each run's last execution, optionally golden-only."""
        mask = golden_mask(
            self._last_execution_mask(), self._loi_ints.column(_RUN), golden_runs
        )
        return int(np.count_nonzero(mask))

    def run_columns(
        self,
        components: Sequence[str],
        golden_runs: Iterable[int] | None,
        include_idle: bool,
    ) -> tuple[list[ProfileColumns], list[float]]:
        """Whole-run profile rows, one column bundle per appended batch.

        Every reading of a selected run becomes a row, its time measured from
        the run's first execution start (with ``include_idle`` False only the
        readings inside the first-start-to-last-end span).  The second return
        is every selected run's span.  Runs without executions are left out.
        """
        chunks: list[ProfileColumns] = []
        spans: list[float] = []
        for runs, batch in self._batches:
            exec_offsets = batch.execution_offsets
            selected = np.flatnonzero(golden_mask(
                exec_offsets[1:] > exec_offsets[:-1], batch.run_index, golden_runs
            ))
            if not selected.shape[0]:
                continue
            first_execution = exec_offsets[selected]
            origin = batch.execution_starts_s[first_execution]
            span_end = batch.execution_ends_s[exec_offsets[selected + 1] - 1]
            spans.extend((span_end - origin).tolist())
            # Reading rows of the selected runs, in run then reading order.
            counts = np.diff(batch.reading_offsets)[selected]
            owner = np.repeat(np.arange(selected.shape[0]), counts)
            rows = batch.reading_offsets[selected][owner] + (
                np.arange(owner.shape[0]) - (np.cumsum(counts) - counts)[owner]
            )
            times = batch.reading_times_s[rows]
            if include_idle:
                keep = np.arange(rows.shape[0])
            else:
                keep = np.flatnonzero((times >= origin[owner]) & (times <= span_end[owner]))
            if not keep.shape[0]:
                continue
            owner = owner[keep]
            positions = batch.reading_positions[rows[keep]]
            powers, masks = gather_powers([runs[i].reading_columns() for i in selected], keep)
            chunks.append(ProfileColumns(
                time_s=times[keep] - origin[owner],
                run_index=batch.run_index[selected][owner],
                execution_index=np.where(
                    positions >= 0,
                    batch.execution_indices[first_execution[owner] + np.maximum(positions, 0)],
                    -1,
                ),
                powers_w={name: powers[name] for name in components if name in powers},
                masks={name: masks[name] for name in components if name in masks},
            ))
        return chunks, spans


def golden_mask(
    mask: np.ndarray, run_idx: np.ndarray, golden_runs: Iterable[int] | None
) -> np.ndarray:
    """``mask`` restricted to rows whose run is golden (unchanged for None)."""
    if golden_runs is None:
        return mask
    return mask & np.isin(run_idx, np.fromiter(golden_runs, dtype=np.int64))


class ProfileStitcher:
    """Builds fine-grain profiles from run records.

    LOIs are extracted one batch at a time into a :class:`StitchedRunSeries`
    ledger, and every profile is one boolean mask plus array slices of it --
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
        self._calibration = calibration
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

    def _stitch_into(self, series: StitchedRunSeries, runs: Sequence[RunRecord]) -> None:
        if not runs:
            return
        batch = extract_lois_batch(
            runs,
            calibration=self._calibration if self._synchronize else None,
            synchronize=self._synchronize,
        )
        series.append(runs, batch)

    # ------------------------------------------------------------------ #
    # Execution-level (SSP/SSE) profiles.
    # ------------------------------------------------------------------ #
    def ssp_profile(
        self,
        series: StitchedRunSeries,
        golden_runs: Sequence[int] | None = None,
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
        _, exec_idx = series.loi_index_arrays()
        if min_execution_index is None:
            mask = exec_idx == series.loi_last_execution_array()
        else:
            mask = exec_idx >= min_execution_index
        return self._profile_from_series(
            series, mask, golden_runs, ProfileKind.SSP, which, metadata
        )

    def sse_profile(
        self,
        series: StitchedRunSeries,
        sse_index: int,
        golden_runs: Sequence[int] | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> FineGrainProfile:
        """Profile of the SSE execution (first post-warm-up) across runs."""
        _, exec_idx = series.loi_index_arrays()
        return self._profile_from_series(
            series, exec_idx == sse_index, golden_runs, ProfileKind.SSE, sse_index, metadata
        )

    def execution_profile(
        self,
        series: StitchedRunSeries,
        execution_index: int,
        golden_runs: Sequence[int] | None = None,
    ) -> FineGrainProfile:
        """Profile of an arbitrary execution index (used for outlier studies)."""
        _, exec_idx = series.loi_index_arrays()
        return self._profile_from_series(
            series, exec_idx == execution_index, golden_runs, ProfileKind.CUSTOM,
            execution_index, None,
        )

    # ------------------------------------------------------------------ #
    # Whole-run profile (Figures 5, 6 and 8).
    # ------------------------------------------------------------------ #
    def run_profile(
        self,
        series: StitchedRunSeries,
        golden_runs: Sequence[int] | None = None,
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
        golden_runs: Sequence[int] | None = None,
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
        profiles: dict[str, FineGrainProfile] = {}
        for section in sections:
            if section == "ssp":
                profiles[section] = self.ssp_profile(
                    series,
                    golden_runs,
                    min_execution_index=min_execution_index,
                    metadata=metadata,
                )
            elif section == "sse":
                profiles[section] = self.sse_profile(
                    series, sse_index, golden_runs, metadata=metadata
                )
            elif section == "run":
                profiles[section] = self.run_profile(
                    series, golden_runs, metadata=metadata
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
        mask: np.ndarray,
        golden_runs: Sequence[int] | None,
        kind: ProfileKind,
        which: int | str,
        metadata: Mapping[str, object] | None,
    ) -> FineGrainProfile:
        """Slice the ledger rows selected by ``mask`` into a profile."""
        run_idx, exec_idx = series.loi_index_arrays()
        keep = np.flatnonzero(golden_mask(mask, run_idx, golden_runs))
        powers: dict[str, np.ndarray] = {}
        masks: dict[str, np.ndarray] = {}
        if keep.size:
            for component in self._components:
                column = series.loi_power_column(component)
                if column is None:
                    continue
                values, presence = column
                powers[component] = values[keep]
                if presence is not None:
                    masks[component] = presence[keep]
        columns = ProfileColumns(
            time_s=series.loi_toi_array()[keep],
            run_index=run_idx[keep],
            execution_index=exec_idx[keep],
            powers_w=powers,
            masks=masks,
        )
        return FineGrainProfile(
            kernel_name=series.kernel_name,
            kind=kind,
            execution_time_s=self._execution_time(series, golden_runs, which),
            metadata=dict(metadata or {}),
            columns=columns,
        )

    @staticmethod
    def _execution_time(
        series: StitchedRunSeries, golden_runs: Sequence[int] | None, which: int | str
    ) -> float:
        run_indices, durations = series.execution_durations(which)
        if golden_runs is not None:
            selected = set(golden_runs)
            durations = [
                duration
                for run_index, duration in zip(run_indices, durations)
                if run_index in selected
            ]
        return mean_duration_or_zero(durations)


def mean_duration_or_zero(durations: Sequence[float]) -> float:
    if not durations:
        return 0.0
    return float(sum(durations) / len(durations))


__all__ = ["StitchedRunSeries", "ProfileStitcher", "golden_mask", "mean_duration_or_zero"]
